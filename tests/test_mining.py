"""The per-length driver's contract, held with fake searches, and the
backward search's step-back rules, held with fake engine hooks."""

from helpers import color_graph, vs
from walkmine.mining import Budget, MiningConfig, backward_search, run_levels

ZERO = {"triples_expanded": 0, "pseudo_bases": 0, "dedup_hits": 0, "laps": 0}


def _instance():
    # s -> t -> t: every length from 1 on ends at {t}
    g = color_graph(["s", "t"], ["gray", "green"], [("s", "t"), ("t", "t")])
    return g, vs(g, "s"), vs(g, "t")


def fake(name, listed, log):
    """A search that takes one charged step per (program, key) of ``listed``,
    listing that program, and logs each step and its own end."""

    def search(length, positions, budget, found, stats):
        for program, key in listed:
            if not budget.charge_triple():
                return
            log.append((name, length, program))
            found[program] = key
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
    quick = fake("quick", [("q1", 1), ("q2", 2)], log)
    slow = fake("slow", [("s1", 1), ("s2", 2), ("s3", 3), ("s4", 4)], log)
    reports = _run([slow, quick], g, S, T, max_len=1)
    # one step each in turn, the slow search first; the quick one then ends
    # the race, and the slow one is stepped no further
    assert log == [("slow", 1, "s1"), ("quick", 1, "q1"), ("slow", 1, "s2"), ("quick", 1, "q2"),
                   ("slow", 1, "s3"), ("quick", 1, "done")]
    assert reports[1].exhausted and reports[1].stats["laps"] == 5
    assert reports[1].programs == ["s1", "q1", "s2", "q2", "s3"]


def test_programs_come_out_by_their_keys():
    g, S, T = _instance()
    reports = _run([fake("one", [("b", 2), ("a", 3), ("c", 1)], [])], g, S, T, max_len=1)
    assert reports[1].programs == ["c", "b", "a"]


def test_triple_cap_in_mid_race_ends_the_stream():
    g, S, T = _instance()
    log = []
    searches = [fake("x", [("x1", 1), ("x2", 2), ("x3", 3)], log), fake("y", [("y1", 1), ("y2", 2)], log)]
    reports = _run(searches, g, S, T, max_len=3, max_triples=3)
    assert [r.length for r in reports] == [0, 1]
    assert not reports[1].exhausted
    assert reports[1].programs == ["x1", "y1", "x2"]
    assert len(log) == 3


def test_non_viable_length_reports_zero_stats():
    g, S, _ = _instance()
    log = []
    # T = S: length 0 lists ε, and no walk of length 1 or 2 returns to s
    reports = _run([fake("x", [("x1", 1)], log)], g, S, S, max_len=2)
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


def _step_back(source, target, length, safe=lambda state, base: base, split=None, label=None):
    """Run the exact backward search at one length with logging fake hooks.

    The hooks default to: every base vertex safe, the pool one class kept
    whole, and each step labelled "x". Returns the hook calls, each as its
    name and the B of the state it saw (the pool, for ``split``), the
    accepted programs and the stats.
    """
    calls = []

    def log_safe(state, base):
        calls.append(("safe", state[1]))
        return safe(state, base)

    def log_split(pool, allowed):
        calls.append(("split", pool))
        return split(pool, allowed) if split else [(pool, allowed)]

    def log_label(state, allowed, stats):
        calls.append(("label", state[1]))
        return label(state) if label else ("x",) + state[0]

    def accept(p):
        calls.append(("accept", p))
        return p

    g = _LADDER
    positions = [source]
    while len(positions) <= length:
        positions.append(g.out_image(positions[-1]))
    found, stats = {}, {"triples_expanded": 0, "pseudo_bases": 0, "dedup_hits": 0}
    search = backward_search(g, "scp", (), vs(g, *target), "exact", log_safe, log_split, log_label, accept)
    for _ in search(length, positions, Budget(MiningConfig(max_len=length)), found, stats):
        pass
    return calls, list(found), stats


def test_last_step_base_is_the_whole_source():
    S = _mask("a", "b")
    # a and b each cover c alone, yet S is the one base, drawn from no split
    calls, found, stats = _step_back(S, ["c"], 1)
    assert calls == [("safe", _mask("c")), ("label", _mask("c")), ("accept", ("x",))]
    assert found == [("x",)] and stats["pseudo_bases"] == 1
    # part of S unsafe, no safe set at all, or S's image missing part of B: no state
    for safe, target in ((lambda state, base: base & ~_mask("b"), ["c"]),
                         (lambda state, base: None, ["c"]),
                         (lambda state, base: base, ["c", "t"])):
        calls, found, stats = _step_back(S, target, 1, safe=safe)
        assert [name for name, _ in calls] == ["safe"]
        assert found == [] and stats["pseudo_bases"] == 0


def test_pool_missing_part_of_b_gives_no_state():
    def singletons(pool, allowed):
        return [(1 << v, 1 << v) for v in (1, 2) if pool >> v & 1]  # a, then b

    # a's image misses d: only b's pool survives, and becomes the next base
    calls, _, stats = _step_back(_mask("s"), ["c", "d"], 2, split=singletons)
    assert calls[:4] == [("safe", _mask("c", "d")), ("split", _mask("a", "b")),
                         ("label", _mask("c", "d")), ("safe", _mask("b"))]
    assert stats["pseudo_bases"] == 2


def test_label_is_asked_only_for_surviving_pools():
    # the one pool misses d, so no pool survives and nothing is labelled
    calls, _, stats = _step_back(_mask("s"), ["c", "d"], 2, split=lambda pool, allowed: [(_mask("a"), allowed)])
    assert [name for name, _ in calls] == ["safe", "split"]
    assert stats["pseudo_bases"] == 0
    # a None label drops the step back
    calls, found, stats = _step_back(_mask("s"), ["c"], 2, label=lambda state: None)
    assert [name for name, _ in calls] == ["safe", "split", "label"]
    assert found == [] and stats["pseudo_bases"] == 0


def test_bases_are_covers_until_one_step_before_the_last():
    calls, found, _ = _step_back(_mask("s"), ["t"], 3)
    states = [B for name, B in calls if name == "safe"]
    # three steps back: {t}'s minimal covers in {c, d}; two steps back: the
    # pool itself, {a, b} for c although a and b each cover it alone
    assert states == [_mask("t"), _mask("c"), _mask("d"), _mask("a", "b"), _mask("b")]
    assert found == [("x", "x", "x")]
