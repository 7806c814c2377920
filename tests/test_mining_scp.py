import random
import time

import pytest

import walkmine.graph as graphmod
from helpers import color_graph, color_names, mine_all, name_program, vs
from walkmine.bitset import VertexSet
from walkmine.generate import random_instance
from walkmine.graph import CATEGORICAL, Dimension, DirectedGraph, FeatureSchema
from walkmine.mining import MiningConfig, render_program
from walkmine.oracle import brute_force_mine_scp
from walkmine.scp import classify_scp, mine_exact_scp, mine_feasible_scp
from walkmine.stp import mine_exact_stp, mine_feasible_stp


def test_funnel_exact(funnel):
    g, S, T = funnel
    reports = mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=4))
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


def _last_step_gadget(m, green=False):
    """m red targets, each with two blue predecessors; the source is all 2m
    blues, or with ``green`` one green vertex that feeds every blue."""
    blues = [f"b{i}_{k}" for i in range(m) for k in (0, 1)]
    reds = [f"r{i}" for i in range(m)]
    edges = [(b, f"r{i}") for i in range(m) for b in blues[2 * i:2 * i + 2]]
    names, colours = blues + reds, ["blue"] * len(blues) + ["red"] * m
    if green:
        names, colours = names + ["s"], colours + ["green"]
        edges += [("s", b) for b in blues]
    g = color_graph(names, colours, edges)
    return g, vs(g, "s") if green else vs(g, *blues), vs(g, *reds)


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
    one whole pool each instead."""
    g, S, T = _last_step_gadget(16, green)
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
