import hashlib
import json
import random

import walkmine.criterion
import walkmine.stp
from helpers import mine_all, name_program, trace_names, vs
from walkmine import (
    AllOf,
    AnyOf,
    Atom,
    MiningConfig,
    classify_stp,
    mine_exact_scp,
    mine_exact_stp,
    mine_feasible_stp,
    simulate_scp,
    simulate_stp,
)
from walkmine.generate import layered_graph, random_instance
from walkmine.mining import LITERAL

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
        "inseparable": 0,
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
    literal = mine_all(
        mine_exact_stp, g, S, T, MiningConfig(max_len=3, fidelity=LITERAL)
    )
    assert all(not rep.programs for rep in literal.values())


def test_literal_misses_funnel(funnel):
    g, S, T = funnel
    literal = mine_all(
        mine_exact_stp, g, S, T, MiningConfig(max_len=3, fidelity=LITERAL)
    )
    assert all(not rep.programs for rep in literal.values())


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


def _planted_layered():
    """Six layers of eight with one planted length-5 exact program."""
    g = layered_graph([8] * 6, ["red", "green", "blue"], 3, seed=1)
    S = g.vertex_set(range(8))
    planted = name_program(g, "green", "blue", "red", "green", "blue")
    return g, S, simulate_scp(g, S, planted)[-1]


def test_criteria_synthesised_once_per_state(monkeypatch):
    """Each step criterion is built once per expanded state, not per chain."""
    g, S, T = _planted_layered()
    calls = {"compute_criterion": 0, "classify_stp": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    compute = counted("compute_criterion", walkmine.criterion.compute_criterion)
    monkeypatch.setattr(walkmine.criterion, "compute_criterion", compute)
    monkeypatch.setattr(walkmine.stp, "compute_criterion", compute, raising=False)
    monkeypatch.setattr(walkmine.stp, "classify_stp", counted("classify_stp", walkmine.stp.classify_stp))
    reports = list(mine_exact_stp(g, S, T, MiningConfig(max_len=5)))
    assert [len(r.programs) for r in reports] == [0, 0, 0, 0, 0, 1]
    assert all(r.exhausted for r in reports)
    states = sum(r.stats["chains_expanded"] for r in reports)
    assert 0 < calls["compute_criterion"] <= states
    assert calls["classify_stp"] == 1


def test_program_hash_cached(monkeypatch):
    """Looking a state up hashes its program without re-walking the criterion trees."""
    g, S, T = _planted_layered()
    calls = [0]

    def counted(fn):
        def wrapper(self):
            calls[0] += 1
            return fn(self)

        return wrapper

    for cls in (Atom, AllOf, AnyOf):
        monkeypatch.setattr(cls, "__hash__", counted(cls.__hash__))
    reports = list(mine_exact_stp(g, S, T, MiningConfig(max_len=5)))
    assert [len(r.programs) for r in reports] == [0, 0, 0, 0, 0, 1]
    states = sum(r.stats["chains_expanded"] for r in reports)
    assert 0 < calls[0] <= 6 * states


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
