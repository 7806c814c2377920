import functools
import random
import time

import pytest

import walkmine.graph as graphmod
from helpers import color_graph, color_names, mine_all, name_program, scp_miner, vs
from walkmine.bitset import VertexSet
from walkmine.generate import random_instance
from walkmine.graph import CATEGORICAL, Dimension, DirectedGraph, FeatureSchema
from walkmine.mining import Budget, MiningConfig, render_program
from walkmine.oracle import brute_force_mine_scp
from walkmine.scp import SEARCHES, classify_scp, mine_exact_scp, mine_feasible_scp
from walkmine.stp import mine_exact_stp, mine_feasible_stp


def test_funnel_exact(funnel):
    g, S, T = funnel
    reports = mine_all(scp_miner("exact", ("backward",)), g, S, T, MiningConfig(max_len=4))
    assert sorted(reports) == [0, 1, 2, 3, 4]
    assert reports[2].programs == [name_program(g, "red", "green")]
    for length in (0, 1, 3, 4):
        assert reports[length].programs == []
    assert all(r.exhausted for r in reports.values())
    assert reports[2].stats["triples_expanded"] > 0
    assert reports[2].stats["pseudo_bases"] > 0


def test_funnel_feasible(funnel):
    g, S, T = funnel
    reports = mine_all(mine_feasible_scp, g, S, T, MiningConfig(max_len=3))
    assert color_names(g, reports[2].programs) == [("red", "green")]
    assert reports[1].programs == [] and reports[3].programs == []


def test_funnel_report_rendering(funnel):
    g, S, T = funnel
    (report,) = [r for r in mine_exact_scp(g, S, T, MiningConfig(max_len=2)) if r.length == 2]
    doc = report.to_dict(g)
    assert doc == {
        "engine": "scp",
        "mode": "exact",
        "length": 2,
        "exhausted": True,
        "programs": [["red", "green"]],
        "stats": report.stats,
    }


def test_dead_branch_needs_vacuous_safety(dead_branch):
    g, S, T = dead_branch
    reports = mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=3))
    assert color_names(g, reports[3].programs) == [("red", "green", "yellow")]
    assert reports[1].programs == [] and reports[2].programs == []


def test_dead_branch_literal_mode_misses(dead_branch):
    # the uncorrected safe-set rule prunes the dead green branch's parent
    g, S, T = dead_branch
    cfg = MiningConfig(max_len=3, fidelity="literal")
    reports = mine_all(mine_exact_scp, g, S, T, cfg)
    assert all(r.programs == [] for r in reports.values())


def test_funnel_literal_mode_misses(funnel):
    g, S, T = funnel
    for miner in (mine_exact_scp, mine_feasible_scp):
        reports = mine_all(miner, g, S, T, MiningConfig(max_len=2, fidelity="literal"))
        assert all(r.programs == [] for r in reports.values())


def test_exact_programs_at_two_lengths():
    # a miner that carried level-2 survivors forward would lose one of these
    g = color_graph(
        ["s", "a", "b", "b2", "t"],
        ["yellow", "blue", "red", "red", "green"],
        [("s", "a"), ("s", "b"), ("b", "t"), ("a", "b2"), ("b2", "t")],
    )
    S, T = vs(g, "s"), vs(g, "t")
    reports = mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=3))
    assert color_names(g, reports[2].programs) == [("red", "green")]
    assert color_names(g, reports[3].programs) == [("blue", "red", "green")]
    for length in (2, 3):
        exact, _ = brute_force_mine_scp(g, S, T, length)
        assert set(reports[length].programs) == exact


def test_feasible_needs_overlap_not_containment():
    g = color_graph(
        ["s", "a", "t1", "t2"],
        ["gray", "red", "green", "green"],
        [("s", "a"), ("a", "t1")],
    )
    S, T = vs(g, "s"), vs(g, "t1", "t2")
    reports = mine_all(mine_feasible_scp, g, S, T, MiningConfig(max_len=2))
    assert color_names(g, reports[2].programs) == [("red", "green")]
    # exact mode must still prune: T is never fully coverable
    reports = mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=2))
    assert all(r.programs == [] for r in reports.values())


def test_single_step_from_mixed_colour_source():
    g = color_graph(
        ["s1", "s2", "t"],
        ["blue", "red", "green"],
        [("s1", "t"), ("s2", "t")],
    )
    S, T = vs(g, "s1", "s2"), vs(g, "t")
    for miner in (mine_exact_scp, mine_feasible_scp):
        reports = mine_all(miner, g, S, T, MiningConfig(max_len=1))
        assert color_names(g, reports[1].programs) == [("green",)]


def test_empty_program_reports(funnel):
    g, S, T = funnel
    assert mine_all(mine_exact_scp, g, T, T, MiningConfig(max_len=0))[0].programs == [()]
    assert mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=0))[0].programs == []
    bigger = vs(g, "t", "c")
    assert mine_all(mine_feasible_scp, g, T, bigger, MiningConfig(max_len=0))[0].programs == [()]
    assert mine_all(mine_exact_scp, g, T, bigger, MiningConfig(max_len=0))[0].programs == []


def test_instance_validation(funnel):
    g, S, T = funnel
    from walkmine.bitset import VertexSet

    with pytest.raises(ValueError):
        list(mine_exact_scp(g, VertexSet(g.n), T, MiningConfig(max_len=1)))
    with pytest.raises(ValueError):
        list(mine_exact_scp(g, S, VertexSet(99, 1), MiningConfig(max_len=1)))
    with pytest.raises(ValueError):
        MiningConfig(max_len=-1)
    with pytest.raises(ValueError):
        MiningConfig(max_len=1, fidelity="verbatim")
    with pytest.raises(ValueError):
        MiningConfig(max_len=1, max_triples=0)
    # caps are counts: a float or a bool is refused, not rounded or compared
    for caps in ({"max_len": 2.5}, {"max_len": True}, {"max_len": 4, "max_programs": 2.5},
                 {"max_len": 4, "max_programs": True}, {"max_len": 4, "max_triples": 7.0}):
        with pytest.raises(ValueError, match="must be an integer"):
            MiningConfig(**caps)


def test_triple_cap_marks_unexhausted(funnel):
    g, S, T = funnel
    reports = list(mine_exact_scp(g, S, T, MiningConfig(max_len=4, max_triples=2)))
    assert any(not r.exhausted for r in reports)
    # the stream stops at the level that ran out of budget
    assert reports[-1].exhausted is False
    assert reports[-1].length <= 4


def test_program_cap_stops_the_stream():
    g = color_graph(
        ["s", "a", "b", "t1", "t2"],
        ["gray", "red", "blue", "green", "green"],
        [("s", "a"), ("s", "b"), ("a", "t1"), ("b", "t2")],
    )
    S, T = vs(g, "s"), vs(g, "t1", "t2")
    cfg = MiningConfig(max_len=3, max_programs=1)
    reports = list(mine_feasible_scp(g, S, T, cfg))
    total = sum(len(r.programs) for r in reports)
    assert total == 1
    assert reports[-1].length < 3


def test_program_cap_counts_empty_program_and_marks_cut_off():
    # ε counts toward max_programs, and a stream that stops early ends on a
    # report marked cut off
    miners = (mine_exact_scp, mine_feasible_scp, mine_exact_stp, mine_feasible_stp)
    for seed in range(1000, 1050):
        inst = random_instance(seed)
        for miner in miners:
            cfg = MiningConfig(max_len=3, max_programs=1)
            reports = list(miner(inst.graph, inst.source, inst.target, cfg))
            assert sum(len(r.programs) for r in reports) <= 1, (seed, miner.__name__)
            if reports[-1].length < 3:
                assert reports[-1].exhausted is False, (seed, miner.__name__)


def test_determinism(funnel):
    g, S, T = funnel
    cfg = MiningConfig(max_len=4)
    a = [r.to_dict(g) for r in mine_exact_scp(g, S, T, cfg)]
    b = [r.to_dict(g) for r in mine_exact_scp(g, S, T, cfg)]
    assert a == b


def test_emitted_programs_are_sorted(threestep):
    g, S, T = threestep
    reports = mine_all(mine_feasible_scp, g, S, T, MiningConfig(max_len=3))
    progs = reports[3].programs
    assert progs == sorted(progs)
    assert color_names(g, progs) == [("green", "blue", "yellow"), ("green", "red", "yellow")]


def test_matches_oracle_on_random_graphs():
    rng = random.Random(53)
    for trial in range(40):
        n = rng.randint(2, 10)
        names = [f"v{i}" for i in range(n)]
        colors = [rng.choice(["red", "green", "blue"]) for _ in range(n)]
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3 * n))}
        g = color_graph(names, colors, [(names[u], names[w]) for u, w in edges])
        S = vs(g, *{names[rng.randrange(n)] for _ in range(rng.randint(1, 2))})
        T = vs(g, *{names[rng.randrange(n)] for _ in range(rng.randint(1, 2))})
        cfg = MiningConfig(max_len=3)
        for mode, miner in (("exact", mine_exact_scp), ("feasible", mine_feasible_scp)):
            got = {r.length: set(r.programs) for r in miner(g, S, T, cfg)}
            for length in range(4):
                exact, feasible = brute_force_mine_scp(g, S, T, length)
                want = exact if mode == "exact" else feasible
                assert got[length] == want, (trial, mode, length)


def test_all_emissions_reclassify(funnel, dead_branch, threestep, fourstep):
    for g, S, T in (funnel, dead_branch, threestep, fourstep):
        for mode, miner in (("exact", mine_exact_scp), ("feasible", mine_feasible_scp)):
            for rep in miner(g, S, T, MiningConfig(max_len=4)):
                for p in rep.programs:
                    kind = classify_scp(g, S, T, p).kind
                    if mode == "exact":
                        assert kind == "exact"
                    else:
                        assert kind in ("exact", "feasible")


def _sparse_instance(seed: int, n: int, degree: int, colours: int):
    """Random graph with `degree` out-edges per vertex, target planted by 3 colours."""
    rng = random.Random(seed)
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    rows = [(f"c{rng.randrange(colours)}",) for _ in range(n)]
    edges = sorted({(v, rng.randrange(n)) for v in range(n) for _ in range(degree)})
    source = VertexSet.from_ids(n, rng.sample(range(n), 3))

    def build():
        return DirectedGraph(schema, [f"v{i}" for i in range(n)], rows, edges)

    g = build()
    cur = source.mask
    for _ in range(3):
        image = g.out_image(cur)
        present = [c for c in range(g.num_colors) if image & g.color_mask(c)]
        cur = image & g.color_mask(rng.choice(present))
    return build, source, VertexSet(n, cur)


def test_dense_limit_crossing_keeps_reports_and_speed(monkeypatch):
    # the same sparse graph on both adjacency paths: above the limit the
    # edge-array path must give the same reports without a per-vertex O(E) scan
    build, S, T = _sparse_instance(seed=3, n=8000, degree=4, colours=8)
    cfg = MiningConfig(max_len=4)
    edge_arrays = build()
    assert edge_arrays._vectorised
    start = time.perf_counter()
    fast = [r.to_dict(edge_arrays) for r in mine_feasible_scp(edge_arrays, S, T, cfg)]
    elapsed = time.perf_counter() - start
    monkeypatch.setattr(graphmod, "_DENSE_LIMIT", 10**6)
    masks = build()
    assert not masks._vectorised
    assert [r.to_dict(masks) for r in mine_feasible_scp(masks, S, T, cfg)] == fast
    assert any(rep["programs"] for rep in fast)
    assert elapsed < 2.0, f"edge-array path took {elapsed:.2f} s"


def _cover_gadget(m, head=()):
    """m red targets, each with two blue predecessors. With no ``head`` the
    source is all 2m blues; otherwise it is the first of a path of single
    vertices coloured ``head``, whose last vertex feeds every blue."""
    blues = [f"b{i}_{k}" for i in range(m) for k in (0, 1)]
    reds = [f"r{i}" for i in range(m)]
    edges = [(b, f"r{i}") for i in range(m) for b in blues[2 * i:2 * i + 2]]
    path = [f"h{i}" for i in range(len(head))]
    if path:
        edges += list(zip(path, path[1:])) + [(path[-1], b) for b in blues]
    g = color_graph(blues + reds + path, ["blue"] * len(blues) + ["red"] * m + list(head), edges)
    return g, vs(g, path[0]) if path else vs(g, *blues), vs(g, *reds)


@pytest.mark.parametrize(
    "miner,green",
    [
        pytest.param(miner, green, id=miner.__name__ + ("-green" if green else ""))
        for green in (False, True)
        for miner in (mine_exact_scp, mine_exact_stp)
    ],
)
def test_last_step_tests_the_source_itself(miner, green):
    """The blues hold 2^m minimal covers of T; the last two steps back test
    one whole pool each instead. ``scp`` runs its backward search alone."""
    if miner is mine_exact_scp:
        miner = scp_miner("exact", ("backward",))
    g, S, T = _cover_gadget(16, ("green",) if green else ())
    colours = ["blue", "red"] if green else ["red"]
    n = len(colours)
    reports = mine_all(miner, g, S, T, MiningConfig(max_len=n))
    (p,) = reports[n].programs
    criteria = [{"atom": {"f": "color", "op": "=", "v": c}} for c in colours]
    assert render_program(g, p) in (colours, criteria)
    assert reports[n].stats["pseudo_bases"] == n
    start = time.monotonic()
    capped = mine_all(miner, g, S, T, MiningConfig(max_len=n, time_budget=0.05))
    assert time.monotonic() - start < 0.5
    assert capped[n].programs == [p] and capped[n].exhausted


@pytest.mark.parametrize("miner", [mine_exact_scp, mine_exact_stp], ids=lambda miner: miner.__name__)
def test_interior_cover_enumeration_keeps_the_time_budget(miner):
    """Three steps back the 2^m minimal covers of the reds among the blues
    are listed; the listing stops at the deadline, and the length is cut off."""
    g, S, T = _cover_gadget(16, ("green", "yellow"))
    start = time.monotonic()
    reports = mine_all(miner, g, S, T, MiningConfig(max_len=3, time_budget=0.05))
    assert time.monotonic() - start < 0.5
    assert max(reports) == 3 and not reports[3].exhausted


@functools.lru_cache(maxsize=None)
def _corpus_case(seed):
    """A corpus instance and its oracle answers (exact, feasible) at lengths 0..4."""
    inst = random_instance(seed)
    return inst, [brute_force_mine_scp(inst.graph, inst.source, inst.target, n) for n in range(5)]


@pytest.mark.parametrize("searches", [("forward",), ("backward",), SEARCHES], ids="+".join)
def test_each_search_matches_oracle_on_corpus(searches):
    for seed in range(1000, 1200):
        inst, oracle = _corpus_case(seed)
        for m, mode in enumerate(("exact", "feasible")):
            miner = scp_miner(mode, searches)
            reports = mine_all(miner, inst.graph, inst.source, inst.target, MiningConfig(max_len=4))
            for length, answers in enumerate(oracle):
                assert reports[length].exhausted
                assert reports[length].programs == sorted(answers[m]), (seed, mode, length)


def test_capped_race_lists_only_confirmed_programs():
    """Under a state or program cap each listed program is one the uncapped
    run lists, an exhausted report lists them all, and max_programs holds."""
    cut_off_with_programs = 0
    for seed in range(1000, 1060):
        inst = random_instance(seed)
        g, S, T = inst.graph, inst.source, inst.target
        for miner in (mine_exact_scp, mine_feasible_scp):
            full = mine_all(miner, g, S, T, MiningConfig(max_len=4))
            for cap in (1, 2, 3, 5, 8, 13):
                for cfg in (MiningConfig(max_len=4, max_triples=cap), MiningConfig(max_len=4, max_programs=cap)):
                    reports = list(miner(g, S, T, cfg))
                    assert sum(len(r.programs) for r in reports) <= (cfg.max_programs or float("inf"))
                    for r in reports:
                        assert set(r.programs) <= set(full[r.length].programs), (seed, cfg, r.length)
                        assert r.programs == sorted(r.programs)
                        if r.exhausted:
                            assert r.programs == full[r.length].programs, (seed, cfg, r.length)
                        cut_off_with_programs += not r.exhausted and bool(r.programs)
    assert cut_off_with_programs


@pytest.mark.parametrize("cap, listed, exhausted", [(2, [], False), (3, [("green",)], True)])
def test_forward_listing_is_charged_like_a_step(cap, listed, exhausted):
    # turns: the forward search expands S, the backward search pops (ε, T, T),
    # and the forward search lists green, charging a third step, and finishes
    g = color_graph(["s", "t"], ["gray", "green"], [("s", "t")])
    *_, last = mine_exact_scp(g, vs(g, "s"), vs(g, "t"), MiningConfig(max_len=1, max_triples=cap))
    assert last.length == 1 and last.exhausted == exhausted
    assert color_names(g, last.programs) == listed


def _layered_gadget(L):
    """Layers 1..L-1 of an a- and a b-vertex, each joined to both of the next
    layer's; S = {a0}, T = {t}, one a-vertex at layer L. Its 2^(L-1) exact
    programs of length L all run through 2L-1 endpoint sets."""
    names = ["a0"] + [f"{x}{i}" for i in range(1, L) for x in "ab"] + ["t"]
    layers = [["a0"]] + [[f"a{i}", f"b{i}"] for i in range(1, L)] + [["t"]]
    edges = [(u, v) for here, there in zip(layers, layers[1:]) for u in here for v in there]
    g = color_graph(names, [n[0] if n != "t" else "a" for n in names], edges)
    return g, vs(g, "a0"), vs(g, "t")


@pytest.mark.parametrize(
    "caps",
    [dict(time_budget=0.05), dict(max_programs=1), dict(max_triples=1000),
     dict(time_budget=0.05, max_programs=1, max_triples=100)],
    ids=lambda caps: ",".join(caps),
)
def test_forward_listing_keeps_the_caps(caps):
    L = 26
    g, S, T = _layered_gadget(L)
    start = time.monotonic()
    reports = mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=L, **caps))
    assert time.monotonic() - start < 0.5
    assert max(reports) == L and not reports[L].exhausted
    assert len(reports[L].programs) <= caps.get("max_programs", caps.get("max_triples", float("inf")))
    assert all(classify_scp(g, S, T, p).kind == "exact" for p in reports[L].programs)


def test_forward_search_keeps_only_sets_that_can_reach_the_target():
    # without the K_r test the length-3 search expands 44 sets here
    build, S, T = _sparse_instance(seed=3, n=8000, degree=4, colours=8)
    g = build()
    for mode in ("exact", "feasible"):
        reports = mine_all(scp_miner(mode, ("forward",)), g, S, T, MiningConfig(max_len=4))
        assert [r.stats["sets_expanded"] for r in reports.values()] == [0, 0, 0, 3, 0]
        assert len(reports[3].programs) == 1


def _dense_instance(seed):
    """A random graph of 40-80 vertices, 2-4 colours and out-degree 4-8,
    with a 3-vertex source and a 4-12-vertex target."""
    rng = random.Random(seed)
    n, colours, degree = rng.randint(40, 80), rng.randint(2, 4), rng.randint(4, 8)
    names = [f"v{i}" for i in range(n)]
    edges = {(names[v], names[rng.randrange(n)]) for v in range(n) for _ in range(degree)}
    g = color_graph(names, [f"c{rng.randrange(colours)}" for _ in range(n)], sorted(edges))
    return g, vs(g, *rng.sample(names, 3)), vs(g, *rng.sample(names, rng.randint(4, 12)))


def test_race_charges_at_most_twice_the_faster_search(monkeypatch):
    """Per length, the race charges the budget for at most 2 * min(forward
    alone, backward alone) + 2 steps; the family has lengths each search wins."""
    charges = []
    charge_triple = Budget.charge_triple
    monkeypatch.setattr(Budget, "charge_triple", lambda self: charges.append(None) or charge_triple(self))

    def charged_per_length(miner, g, S, T):
        counts = []
        for _ in miner(g, S, T, MiningConfig(max_len=6)):
            counts.append(len(charges))
            charges.clear()
        return counts

    wins = {"forward": 0, "backward": 0}
    for seed in range(30):
        g, S, T = _dense_instance(seed)
        for mode in ("exact", "feasible"):
            charged = [charged_per_length(scp_miner(mode, searches), g, S, T)
                       for searches in (("forward",), ("backward",), SEARCHES)]
            for fwd, bwd, race in zip(*charged):
                assert race <= 2 * min(fwd, bwd) + 2, (seed, mode, fwd, bwd, race)
                wins["forward"] += fwd < bwd
                wins["backward"] += bwd < fwd
    assert wins["forward"] and wins["backward"], wins
