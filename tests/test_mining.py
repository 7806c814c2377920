"""The per-length driver's contract, held with fake searches, and the
backward search's step-back rules, held with fake engine hooks."""

import pytest

from helpers import color_graph, scp_miner, vs
from walkmine import scp, stp
from walkmine.mining import Budget, MiningConfig, backward_search, render_program, run_levels
from walkmine.stp import mine_feasible_stp

ZERO = {"triples_expanded": 0, "pseudo_bases": 0, "dedup_hits": 0, "laps": 0}


def _instance():
    # s -> t -> t: every length from 1 on ends at {t}; the fake searches list
    # colour ids 0-5, which name c0-c5, so the driver's order is the ids' order
    g = color_graph(["s", "t", "x2", "x3", "x4", "x5"], [f"c{i}" for i in range(6)],
                    [("s", "t"), ("t", "t")])
    return g, vs(g, "s"), vs(g, "t")


def fake(name, listed, log):
    """A search that takes one charged step per program of ``listed``,
    listing that program, and logs each step and its own end."""

    def search(length, positions, budget, found, stats):
        for program in listed:
            if not budget.charge_triple():
                return
            log.append((name, length, program))
            found[program] = None
            stats["laps"] += 1
            yield
        log.append((name, length, "done"))

    return search


def _run(searches, g, S, T, **caps):
    config = MiningConfig(**caps)
    return list(run_levels(g, S, T, config, "scp", "exact", (), lambda *_: searches, ("laps",)))


def test_first_search_to_finish_ends_the_length():
    g, S, T = _instance()
    log = []
    quick = fake("quick", [(4,), (2,)], log)
    slow = fake("slow", [(5,), (3,), (1,), (0,)], log)
    reports = _run([slow, quick], g, S, T, max_len=1)
    # one step each in turn, the slow search first; the quick one then ends
    # the race, and the slow one is stepped no further
    assert log == [("slow", 1, (5,)), ("quick", 1, (4,)), ("slow", 1, (3,)), ("quick", 1, (2,)),
                   ("slow", 1, (1,)), ("quick", 1, "done")]
    assert reports[1].exhausted and reports[1].stats["laps"] == 5
    # the driver lists them by key, not in the order they were found
    assert reports[1].programs == [(1,), (2,), (3,), (4,), (5,)]


def test_programs_come_out_by_their_keys():
    g, S, T = _instance()
    reports = _run([fake("one", [(1, 0), (1,), (0, 2), (0, 1, 1)], [])], g, S, T, max_len=1)
    assert reports[1].programs == [(0, 1, 1), (0, 2), (1,), (1, 0)]


def test_triple_cap_in_mid_race_ends_the_stream():
    g, S, T = _instance()
    log = []
    searches = [fake("x", [(3,), (1,), (0,)], log), fake("y", [(2,), (4,)], log)]
    reports = _run(searches, g, S, T, max_len=3, max_triples=3)
    assert [r.length for r in reports] == [0, 1]
    assert not reports[1].exhausted
    assert reports[1].programs == [(1,), (2,), (3,)]
    assert len(log) == 3


def test_non_viable_length_reports_zero_stats():
    g, S, _ = _instance()
    log = []
    # T = S: length 0 lists ε, and no walk of length 1 or 2 returns to s
    reports = _run([fake("x", [(1,)], log)], g, S, S, max_len=2)
    assert [r.programs for r in reports] == [[()], [], []]
    assert all(r.exhausted and r.stats == ZERO for r in reports)
    assert log == []


# -- the backward search's step-back rules ---------------------------------------

# s -> {a, b}; a -> c; b -> {c, d}; {c, d} -> t
_LADDER = color_graph(
    ["s", "a", "b", "c", "d", "t"], ["gray"] * 6,
    [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "t"), ("d", "t")],
)


def _mask(*names):
    return vs(_LADDER, *names).mask


def _step_back(source, target, length, alike=lambda B: 0, split=None, g=_LADDER):
    """Run the exact backward search at one length with logging fake hooks.

    The hooks default to: nothing alike B, so every base vertex is safe, the
    pool one class kept whole, and each step labelled "x". Returns the hook
    calls, each as its name and the B of the state it saw (the pool, for
    ``split``), the listed programs and the stats.
    """
    calls = []

    def log_alike(B):
        calls.append(("alike", B))
        return alike(B)

    def log_split(pool, allowed):
        calls.append(("split", pool))
        return split(pool, allowed) if split else [(pool, allowed)]

    def log_label(B, M, allowed):
        calls.append(("label", B))
        return "x"

    positions = [source]
    while len(positions) <= length:
        positions.append(g.out_image(positions[-1]))
    found, stats = {}, {"triples_expanded": 0, "pseudo_bases": 0, "dedup_hits": 0}
    search = backward_search(g, "scp", vs(g, *target).mask, "exact", log_alike, log_split, log_label)
    for _ in search(length, positions, Budget(MiningConfig(max_len=length)), found, stats):
        pass
    return calls, list(found), stats


def test_last_step_base_is_the_whole_source():
    S = _mask("a", "b")
    # a and b each cover c alone, yet S is the one base, drawn from no split
    calls, found, stats = _step_back(S, ["c"], 1)
    assert calls == [("alike", _mask("c")), ("label", _mask("c"))]
    assert found == [("x",)] and stats["pseudo_bases"] == 1
    # b unsafe (its image meets d, alike {c}, outside M), no step keeping B,
    # or S's image missing part of B: no state
    for alike, target in ((lambda B: _mask("d"), ["c"]), (lambda B: None, ["c"]), (lambda B: 0, ["c", "t"])):
        calls, found, stats = _step_back(S, target, 1, alike=alike)
        assert [name for name, _ in calls] == ["alike"]
        assert found == [] and stats["pseudo_bases"] == 0


# s -> {u1, u2, u3}; each u -> m, and u1 -> x, u2 -> y, u3 -> {x, y}
_FAN = color_graph(
    ["s", "u1", "u2", "u3", "m", "x", "y"], ["gray"] * 7,
    [("s", "u1"), ("s", "u2"), ("s", "u3"), ("u1", "m"), ("u2", "m"), ("u3", "m"),
     ("u1", "x"), ("u2", "y"), ("u3", "x"), ("u3", "y")],
)


def test_safe_set_is_the_base_minus_the_in_image_of_alike_outside_m():
    g, M = _FAN, vs(_FAN, "m").mask
    base = vs(g, "u1", "u2", "u3").mask
    seen = set()
    for X in range(1 << g.n):
        kept = []

        def split(pool, allowed):
            kept.append(allowed)
            return [(pool, allowed)]

        # one step back from ({m}, {m}): the base is {u1, u2, u3}
        calls, _, _ = _step_back(vs(g, "s").mask, ["m"], 2, alike=lambda B: X, split=split, g=g)
        assert calls[0] == ("alike", M)
        assert kept[0] == base & ~g.in_image(X & ~M)
        seen.add(kept[0])
    assert seen == {base, vs(g, "u1").mask, vs(g, "u2").mask, 0}
    # no step keeps B: no state, nothing split or labelled, nothing listed
    calls, found, stats = _step_back(vs(g, "s").mask, ["m"], 2, alike=lambda B: None, g=g)
    assert calls == [("alike", M)] and found == [] and stats["pseudo_bases"] == 0


def test_pool_missing_part_of_b_gives_no_state():
    def singletons(pool, allowed):
        return [(1 << v, 1 << v) for v in (1, 2) if pool >> v & 1]  # a, then b

    # a's image misses d: only b's pool survives, and becomes the next base
    calls, _, stats = _step_back(_mask("s"), ["c", "d"], 2, split=singletons)
    assert calls[:4] == [("alike", _mask("c", "d")), ("split", _mask("a", "b")),
                         ("label", _mask("c", "d")), ("alike", _mask("b"))]
    assert stats["pseudo_bases"] == 2


def test_label_is_asked_only_for_surviving_pools():
    # the one pool misses d, so no pool survives and nothing is labelled
    calls, _, stats = _step_back(_mask("s"), ["c", "d"], 2, split=lambda pool, allowed: [(_mask("a"), allowed)])
    assert [name for name, _ in calls] == ["alike", "split"]
    assert stats["pseudo_bases"] == 0


def test_bases_are_covers_until_one_step_before_the_last():
    calls, found, _ = _step_back(_mask("s"), ["t"], 3)
    states = [B for name, B in calls if name == "alike"]
    # three steps back: {t}'s minimal covers in {c, d}; two steps back: the
    # pool itself, {a, b} for c although a and b each cover it alone
    assert states == [_mask("t"), _mask("c"), _mask("d"), _mask("a", "b"), _mask("b")]
    assert found == [("x", "x", "x")]


# s -> u; u -> t1 (red) and u -> t2 (blue)
_FORK = color_graph(["s", "u", "t1", "t2"], ["white", "gray", "red", "blue"],
                    [("s", "u"), ("u", "t1"), ("u", "t2")])


@pytest.mark.parametrize("module,miner", [(scp, scp_miner("feasible", ("backward",))), (stp, mine_feasible_stp)],
                         ids=["scp", "stp"])
def test_suffixes_reaching_one_state_share_its_expansion(monkeypatch, module, miner):
    """Feasibly into {t1, t2}, the suffixes red and blue both step back to
    ({u}, {u}): the engine's hooks see that group once, and the step back
    from it extends both suffixes."""
    calls = []

    def logged(name, hook):
        def call(B, *rest):
            calls.append((name, B))
            return hook(B, *rest)

        return call

    def search(g, engine, target, mode, alike, split, label):
        return backward_search(g, engine, target, mode, logged("alike", alike), split, logged("label", label))

    monkeypatch.setattr(module, "backward_search", search)
    g = _FORK
    report = list(miner(g, vs(g, "s"), vs(g, "t1", "t2"), MiningConfig(max_len=2)))[2]
    u = vs(g, "u").mask
    assert calls.count(("alike", u)) == calls.count(("label", u)) == 1
    # the groups: the two starts, ({u}, {u}) and (S, S); the second arrival at
    # ({u}, {u}) joins the group queued by the first
    expanded = "chains_expanded" if module is stp else "triples_expanded"
    assert {key: report.stats[key] for key in (expanded, "pseudo_bases", "dedup_hits")} == {
        expanded: 4, "pseudo_bases": 3, "dedup_hits": 1}
    steps = [[step if module is scp else step["atom"]["v"] for step in render_program(g, p)]
             for p in report.programs]
    assert steps == [["gray", "blue"], ["gray", "red"]] and report.exhausted


# s -> {p1, p2} -> {m1, m2, m3, m4}; m1 and m3 -> x, m2 and m4 -> y
_GRID = color_graph(
    ["s", "p1", "p2", "m1", "m2", "m3", "m4", "x", "y"], ["gray"] * 9,
    [("s", "p1"), ("s", "p2")] + [(p, m) for p in ("p1", "p2") for m in ("m1", "m2", "m3", "m4")]
    + [("m1", "x"), ("m3", "x"), ("m2", "y"), ("m4", "y")],
)


def _cover_listing(max_triples=None):
    """Run the exact search for {x, y} from {s} at length 3 with pass-through
    hooks; return its yields, the budget and the stats."""
    g = _GRID
    positions = [vs(g, "s").mask]
    while len(positions) <= 3:
        positions.append(g.out_image(positions[-1]))
    search = backward_search(g, "scp", vs(g, "x", "y").mask, "exact", lambda B: 0,
                             lambda pool, allowed: [(pool, allowed)], lambda B, M, allowed: "x")
    budget = Budget(MiningConfig(max_len=3, max_triples=max_triples))
    stats = {"triples_expanded": 0, "pseudo_bases": 0, "dedup_hits": 0}
    yields = sum(1 for _ in search(3, positions, budget, {}, stats))
    return yields, budget, stats


def test_each_cover_branch_is_charged_and_yielded():
    # three steps back, {x, y}'s four covers in {m1, m2, m3, m4} take three
    # branches: the root picks m1 or m3 for x, then each picks m2 or m4 for y;
    # every popped state is charged and yielded too
    yields, budget, stats = _cover_listing()
    assert stats["triples_expanded"] == 7 and stats["pseudo_bases"] == 4 + 4 + 1
    assert budget.triples == yields == 7 + 3
    # the third branch's charge is refused: the search ends inside the
    # listing, after one popped state and two branches, and queues nothing
    yields, budget, stats = _cover_listing(max_triples=3)
    assert budget.tripped and yields == 2 and budget.triples == 4
    assert stats["triples_expanded"] == 1 and stats["pseudo_bases"] == 0
