import hashlib
import json
import random
import time
from collections import Counter

import pytest

import literal_reference
import walkmine.criterion
import walkmine.stp
from helpers import feature_graph, mine_all, name_program, trace_names, vs
from literal_reference import literal
from walkmine import (
    Atom,
    InseparableError,
    MiningConfig,
    TosetProgram,
    classify_stp,
    compute_criterion,
    mine_exact_scp,
    mine_exact_stp,
    mine_feasible_scp,
    mine_feasible_stp,
    simulate_scp,
    simulate_stp,
)
from walkmine.bitset import iter_bits
from walkmine.generate import layered_graph, random_instance
from walkmine.graph import CATEGORICAL, ORDERED, Dimension, DirectedGraph, FeatureSchema

ATOM = lambda f, op, v: {"atom": {"f": f, "op": op, "v": v}}


def test_funnel_frozen_program(funnel):
    g, S, T = funnel
    reports = mine_all(mine_exact_stp, g, S, T, MiningConfig(max_len=2))
    assert [len(reports[n].programs) for n in (0, 1)] == [0, 0]
    (p,) = reports[2].programs
    assert p.to_dict(g) == [ATOM("color", "=", "red"), ATOM("color", "=", "green")]
    assert reports[2].exhausted
    assert reports[2].stats == {
        "chains_expanded": 3,
        "pseudo_bases": 2,
        "dedup_hits": 0,
    }
    cls = classify_stp(g, S, T, p)
    assert cls.kind == "exact" and cls.partial_halt_steps == ()
    assert trace_names(g, cls.trace) == [["s1", "s2"], ["a", "b"], ["t"]]


def test_two_dimension_program(twofeature):
    g, S, T = twofeature
    reports = mine_all(mine_exact_stp, g, S, T, MiningConfig(max_len=2))
    (p,) = reports[2].programs
    assert p.to_dict(g) == [ATOM("n", "<=", 1), ATOM("n", "<=", 2)]
    assert trace_names(g, simulate_stp(g, S, p)) == [["s"], ["a1"], ["t1"]]
    # the colour projection alone cannot separate the two branches
    colour_only = mine_all(mine_exact_scp, g, S, T, MiningConfig(max_len=2))
    assert all(not rep.programs for rep in colour_only.values())


def test_dead_branch_needs_lookahead(dead_branch):
    g, S, T = dead_branch
    reports = mine_all(mine_exact_stp, g, S, T, MiningConfig(max_len=3))
    (p,) = reports[3].programs
    assert p.to_dict(g) == [
        ATOM("color", "=", "red"),
        ATOM("color", "=", "green"),
        ATOM("color", "=", "yellow"),
    ]
    missed = mine_all(literal(mine_exact_stp), g, S, T, MiningConfig(max_len=3))
    assert all(not rep.programs for rep in missed.values())


def test_literal_misses_funnel(funnel):
    g, S, T = funnel
    missed = mine_all(literal(mine_exact_stp), g, S, T, MiningConfig(max_len=3))
    assert all(not rep.programs for rep in missed.values())


def test_feasible_three_step(threestep):
    g, S, T = threestep
    reports = mine_all(mine_feasible_stp, g, S, T, MiningConfig(max_len=3))
    steps = [p.to_dict(g) for p in reports[3].programs]
    assert steps == [
        [ATOM("color", "=", "green"), ATOM("color", "=", "blue"), ATOM("color", "=", "yellow")],
        [ATOM("color", "=", "green"), ATOM("color", "=", "red"), ATOM("color", "=", "yellow")],
    ]
    for p in reports[3].programs:
        assert classify_stp(g, S, T, p).kind == "feasible"


def test_empty_program_reports(funnel):
    g, S, _ = funnel
    exact = mine_all(mine_exact_stp, g, S, S, MiningConfig(max_len=0))
    assert [len(p) for p in exact[0].programs] == [0]
    sub = vs(g, "s1")
    feas = mine_all(mine_feasible_stp, g, sub, S, MiningConfig(max_len=0))
    assert [len(p) for p in feas[0].programs] == [0]
    assert mine_all(mine_exact_stp, g, sub, S, MiningConfig(max_len=0))[0].programs == []


def test_program_cap_stops_stream(threestep):
    g, S, T = threestep
    reports = list(
        mine_feasible_stp(g, S, T, MiningConfig(max_len=5, max_programs=1))
    )
    assert sum(len(r.programs) for r in reports) == 1
    assert reports[-1].length == 3 and not reports[-1].exhausted


def test_triple_cap_marks_unexhausted(threestep):
    g, S, T = threestep
    reports = list(
        mine_feasible_stp(g, S, T, MiningConfig(max_len=3, max_triples=2))
    )
    assert not reports[-1].exhausted
    assert reports[-1].length < 3 or not reports[-1].programs


def test_report_serialization(funnel):
    g, S, T = funnel
    rep = mine_all(mine_exact_stp, g, S, T, MiningConfig(max_len=2))[2]
    data = rep.to_dict(g)
    assert data["engine"] == "stp" and data["mode"] == "exact"
    assert data["programs"] == [[ATOM("color", "=", "red"), ATOM("color", "=", "green")]]


def _planted_layered(width=8):
    """Six layers of ``width`` with one planted length-5 exact program."""
    g = layered_graph([width] * 6, ["red", "green", "blue"], 3, seed=1)
    S = g.vertex_set(range(width))
    planted = name_program(g, "green", "blue", "red", "green", "blue")
    return g, S, simulate_scp(g, S, planted)[-1]


def _full_layers(k, steps):
    """``steps`` + 1 layers of ``k`` vertices, each vertex of its own colour
    and each layer joined to the next in full; S the first layer, T the last.
    The backward search's groups at depth d each carry k^d suffixes
    (feasible) or k^(d-1) (exact), one per choice of a vertex per layer."""
    names = [f"v{i}_{j}" for i in range(steps + 1) for j in range(k)]
    edges = [(f"v{i}_{a}", f"v{i + 1}_{b}") for i in range(steps) for a in range(k) for b in range(k)]
    g = feature_graph([("color", "categorical")], names, [(name,) for name in names], edges)
    return g, g.vertex_set(range(k)), g.vertex_set(range(steps * k, (steps + 1) * k))


@pytest.mark.parametrize("miner", [mine_exact_stp, mine_feasible_stp], ids=lambda miner: miner.__name__)
def test_caps_hold_over_large_suffix_groups(miner):
    """The search charges once per (B, M) group and cover branch, not per
    suffix. A 0.05 s budget still ends each run within 60 times that: on
    colour-only layers of width 25, where exact mining to length 5 draws
    over a million bases, and on full layers of four colours, where the
    last group holds 4^7 (exact) or 4^8 (feasible) suffixes. There one
    program cap lists one program and marks the length cut off."""
    for (g, S, T), max_len in ((_planted_layered(25), 5), (_full_layers(4, 8), 8)):
        start = time.monotonic()
        list(miner(g, S, T, MiningConfig(max_len=max_len, time_budget=0.05)))
        assert time.monotonic() - start < 60 * 0.05
    reports = list(miner(g, S, T, MiningConfig(max_len=max_len, max_programs=1)))
    assert [len(r.programs) for r in reports] == [0] * max_len + [1]
    assert not reports[-1].exhausted


def _twin_funnel(k):
    """S -> a -> k feature-vector twins w_i -> x -> t1..t4, one colour per
    layer: the backward search's step from {x} has k one-vertex covers,
    all listed in one branch of ``iter_covers``."""
    names = ["S", "a", *(f"w{i}" for i in range(k)), "x", "t1", "t2", "t3", "t4"]
    rows = [("s",), ("a",), *[("w",)] * k, ("x",), *[("t",)] * 4]
    edges = [("S", "a"), ("x", "t1"), ("x", "t2"), ("x", "t3"), ("x", "t4")]
    edges += [(u, v) for i in range(k) for u, v in (("a", f"w{i}"), (f"w{i}", "x"))]
    g = feature_graph([("color", "categorical")], names, rows, edges)
    return g, vs(g, "S"), vs(g, "t1", "t2", "t3", "t4")


@pytest.mark.parametrize("miner", [mine_exact_stp, mine_feasible_stp], ids=lambda miner: miner.__name__)
def test_caps_hold_over_one_wide_cover_branch(miner):
    """A branch that pushes one child per option does linear work between
    two charges, so a 0.1 s budget ends within 60 times that with 12,000
    options in the branch. Each child once copied the options before it,
    which is quadratic."""
    g, S, T = _twin_funnel(12_000)
    start = time.monotonic()
    list(miner(g, S, T, MiningConfig(max_len=4, time_budget=0.1)))
    assert time.monotonic() - start < 60 * 0.1


def _count_calls(monkeypatch, module, name, calls):
    """Count the calls of ``module.name`` into the Counter ``calls``."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _record_synthesis(monkeypatch):
    """Count ``compute_criterion`` calls and record every (B, M, E) input the
    repaired search hands its memo."""
    calls, inputs = Counter(), []
    _count_calls(monkeypatch, walkmine.criterion, "compute_criterion", calls)
    memo = walkmine.criterion.criterion_memo

    def recording(g):
        step = memo(g)

        def spy(B, M, E):
            inputs.append((B, M, E))
            return step(B, M, E)

        return spy

    monkeypatch.setattr(walkmine.stp, "criterion_memo", recording)
    return calls, inputs


def _class_keys(g, inputs) -> set:
    """The distinct synthesis inputs among the (B, M, E) masks ``inputs``: each
    side as the spellings of its rows, once each, in vertex order."""
    return {tuple(tuple(dict.fromkeys(repr(g.rows[v]) for v in iter_bits(side))) for side in masks)
            for masks in inputs}


def test_criteria_synthesised_once_per_state(monkeypatch):
    """Each step criterion is built once per distinct class key in a run,
    however many (B, M, E) masks share it."""
    g, S, T = _planted_layered()
    calls, inputs = _record_synthesis(monkeypatch)
    _count_calls(monkeypatch, walkmine.stp, "classify_stp", calls)
    reports = list(mine_exact_stp(g, S, T, MiningConfig(max_len=5)))
    assert [len(r.programs) for r in reports] == [0, 0, 0, 0, 0, 1]
    assert all(r.exhausted for r in reports)
    assert calls["compute_criterion"] == len(_class_keys(g, inputs)) == 3
    assert len(set(inputs)) == 98
    assert calls["classify_stp"] == 0  # programs are accepted by construction


def test_criteria_come_back_across_lengths(monkeypatch):
    """The repaired search restarts at each length and meets the same inputs
    again; each run still synthesises each distinct class key once."""
    calls, inputs = _record_synthesis(monkeypatch)
    asked = built = 0
    for seed in range(1000, 1030):
        inst = random_instance(seed, extra_dims=2)
        for miner in (mine_exact_stp, mine_feasible_stp):
            calls.clear()
            inputs.clear()
            list(miner(inst.graph, inst.source, inst.target, MiningConfig(max_len=3)))
            assert calls["compute_criterion"] == len(_class_keys(inst.graph, inputs))
            asked, built = asked + len(inputs), built + calls["compute_criterion"]
    assert 0 < built < asked


def test_memo_lives_for_one_run(monkeypatch):
    g, S, T = _planted_layered()
    counts = []
    for _ in range(2):
        calls = Counter()
        _count_calls(monkeypatch, walkmine.criterion, "compute_criterion", calls)
        list(mine_exact_stp(g, S, T, MiningConfig(max_len=5)))
        monkeypatch.undo()
        counts.append(calls["compute_criterion"])
    assert counts[0] == counts[1] > 0


def test_rows_grouped_by_spelling_once_per_graph(monkeypatch):
    """The synthesis memo lives for one run, but its grouping of the rows by
    spelling depends on the graph alone, so a second run reuses it."""
    g, S, T = _planted_layered()
    calls = Counter()
    _count_calls(monkeypatch, walkmine.criterion, "_classes", calls)
    for miner in (mine_exact_stp, mine_feasible_stp):
        list(miner(g, S, T, MiningConfig(max_len=5)))
    assert calls["_classes"] == 1


def test_inseparable_hits_count_every_time(monkeypatch):
    """A cached inseparable input still counts ``inseparable`` on each hit.

    t and t2 are vector twins, both reached at length 2 from the source.
    s1 and s3 each cover u alone, so the literal search accepts two chains
    whose last steps must separate t from t2: one synthesis, two counts.
    """
    g = feature_graph(
        [("color", "categorical")],
        ["s1", "s2", "s3", "u", "x", "t", "t2"],
        [("blue",), ("blue",), ("blue",), ("red",), ("yellow",), ("green",), ("green",)],
        [("s1", "u"), ("s2", "u"), ("s2", "x"), ("s3", "u"), ("u", "t"), ("x", "t2")],
    )
    S, T = vs(g, "s1", "s2", "s3"), vs(g, "t")
    calls = Counter()
    _count_calls(monkeypatch, walkmine.criterion, "compute_criterion", calls)
    reports = mine_all(literal(mine_exact_stp), g, S, T, MiningConfig(max_len=2))
    assert reports[2].programs == []
    assert reports[2].stats["inseparable"] == 2
    assert calls["compute_criterion"] == 2  # u's step and t's step, once each


def _unmemoised(g):
    """A pass-through ``step`` that synthesises on every call."""

    def step(B, M, E):
        try:
            return compute_criterion(*([g.rows[v] for v in iter_bits(side)] for side in (B, M, E)), g.schema)
        except InseparableError:
            return None

    return step


def _criterion_reports():
    """Every criterion report on seeds 1000-1029 with extra_dims 1 and 2: the
    repaired and literal searches in both modes, uncapped and with
    ``max_triples=7``, stats included."""
    docs = []
    for seed in range(1000, 1030):
        for extra_dims in (1, 2):
            inst = random_instance(seed, extra_dims=extra_dims)
            g, S, T = inst.graph, inst.source, inst.target
            for miner in (mine_exact_stp, mine_feasible_stp,
                          literal(mine_exact_stp), literal(mine_feasible_stp)):
                for max_triples in (None, 7):
                    cfg = MiningConfig(max_len=3, max_triples=max_triples)
                    docs.extend(rep.to_dict(g) for rep in miner(g, S, T, cfg))
    return docs


def test_memo_matches_unmemoised_synthesis(monkeypatch):
    memoised = _criterion_reports()
    monkeypatch.setattr(walkmine.stp, "criterion_memo", _unmemoised)
    monkeypatch.setattr(literal_reference, "criterion_memo", _unmemoised)
    assert _criterion_reports() == memoised


def _mixed_spelling_reports() -> list[str]:
    """Exact and feasible criterion reports, one JSON line each, on layered
    graphs whose ordered ``x`` mixes 1 with 1.0 and 0.0 with -0.0 within a
    vector class."""
    schema = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("x", ORDERED)))
    docs = []
    for seed in range(40):
        base = layered_graph([5] * 4, ["red", "green"], 2, seed)
        rng = random.Random(seed)
        rows = [row + (rng.choice((0.0, -0.0, 1, 1.0, 2, 2.0, 3)),) for row in base.rows]
        g = DirectedGraph(schema, base.names, rows, base.edges())
        S, T = g.vertex_set(range(5)), g.vertex_set(range(15, 20))
        for miner in (mine_exact_stp, mine_feasible_stp):
            docs.extend(json.dumps(rep.to_dict(g)) for rep in miner(g, S, T, MiningConfig(max_len=3)))
    return docs


def test_memo_keeps_each_sides_spelling(monkeypatch):
    """A criterion prints the spellings its own side's rows use: compared as
    JSON, where 1 and 1.0 differ, the memoised reports equal the unmemoised."""
    memoised = _mixed_spelling_reports()
    assert any('"v": 1.0' in doc for doc in memoised) and any('"v": -0.0' in doc for doc in memoised)
    monkeypatch.setattr(walkmine.stp, "criterion_memo", _unmemoised)
    assert _mixed_spelling_reports() == memoised


def test_program_hashes_and_compares_in_c():
    """States look their program up with tuple's own C hash and comparison."""
    assert TosetProgram.__hash__ is tuple.__hash__
    assert TosetProgram.__eq__ is tuple.__eq__
    assert not hasattr(TosetProgram((Atom(0, "=", "red"),)), "__dict__")


def test_reports_keep_each_engines_program_type():
    """Both engines start from the empty tuple, yet every ``stp`` program,
    ε included, is a TosetProgram and every ``scp`` program a plain int tuple."""
    miners = ((mine_exact_stp, TosetProgram), (mine_feasible_stp, TosetProgram),
              (mine_exact_scp, tuple), (mine_feasible_scp, tuple))
    miners += tuple((literal(miner), kind) for miner, kind in miners)
    seen = Counter()
    for seed in range(1000, 1050):
        inst = random_instance(seed, extra_dims=2)
        for miner, kind in miners:
            for report in miner(inst.graph, inst.source, inst.target, MiningConfig(max_len=3)):
                for p in report.programs:
                    assert type(p) is kind, (seed, miner.__name__, p)
                    if kind is tuple:
                        assert all(type(c) is int for c in p)
                    seen[kind, len(p)] += 1
    assert all(seen[kind, n] for kind in (TosetProgram, tuple) for n in range(4))


def test_determinism(threestep):
    g, S, T = threestep
    runs = []
    for _ in range(2):
        reps = mine_all(mine_feasible_stp, g, S, T, MiningConfig(max_len=3))
        runs.append([reps[n].to_dict(g) for n in sorted(reps)])
    assert runs[0] == runs[1]


def test_mined_programs_reclassify():
    rng = random.Random(0xC0FFEE)
    checked = 0
    for _ in range(30):
        inst = random_instance(rng.randrange(1 << 30), extra_dims=1)
        g, S, T = inst.graph, inst.source, inst.target
        for miner, kind in ((mine_exact_stp, "exact"), (mine_feasible_stp, "feasible")):
            for rep in miner(g, S, T, MiningConfig(max_len=3)):
                for p in rep.programs:
                    cls = classify_stp(g, S, T, p)
                    assert len(p) == rep.length
                    if kind == "exact":
                        assert cls.kind == "exact"
                    else:
                        assert cls.succeeded
                    checked += 1
    assert checked > 40


def test_repaired_programs_pinned_on_feature_graphs():
    """Uncapped repaired program lists on graphs with two ordered dimensions.

    The acceptance gates check ``stp`` on such graphs for soundness only; the
    digest pins each report's length, ``exhausted`` flag and program keys
    over both modes.
    """
    digest = hashlib.sha256()
    for seed in range(1000, 1050):
        inst = random_instance(seed, extra_dims=2)
        g, S, T = inst.graph, inst.source, inst.target
        for miner in (mine_exact_stp, mine_feasible_stp):
            for rep in miner(g, S, T, MiningConfig(max_len=3)):
                keys = [list(p.key(g)) for p in rep.programs]
                digest.update(json.dumps([rep.length, rep.exhausted, keys]).encode() + b"\n")
    assert digest.hexdigest() == "c76350a483067d7c74c257e0a7cd51ba9806a1ca33c9b1e3c7bf00d5d71c1f4e"
