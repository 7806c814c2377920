"""Tests of the benchmark's reference checker, inputs and metric lists.

The checker is held to the documented results of the repository's fixtures.
Run from the root of a checkout: ``python3 -m pytest bench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import instances  # noqa: E402
import reference  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def fixture(name):
    doc = json.loads((FIXTURES / f"{name}.graph.json").read_text(encoding="utf-8"))
    g = reference.RefGraph.from_document(doc)

    def vertex_list(suffix):
        text = (FIXTURES / f"{name}.{suffix}").read_text(encoding="utf-8")
        return frozenset(line.strip() for line in text.splitlines() if line.strip())

    return g, vertex_list("source"), vertex_list("target")


def verdict(g, S, T, program):
    return reference.classify(g, S, T, reference.keep_sets(g, program))


def test_funnel():
    g, S, T = fixture("funnel")
    v = verdict(g, S, T, ("red", "green"))
    assert v.kind == "exact" and v.halt_step is None and v.partial_halt_steps == ()
    assert v.trace == (frozenset({"s1", "s2"}), frozenset({"a", "b"}), frozenset({"t"}))
    assert verdict(g, S, T, ("blue", "green"))[:2] == ("complete_halt", 1)
    assert verdict(g, {"s1"}, T, ("red", "blue")).kind == "infeasible"
    exact, feasible = reference.colour_programs(g, S, T, 2)
    assert set(exact) == set(feasible) == {("red", "green")}


def test_partial_halt_is_recorded():
    g = reference.RefGraph(
        ["s", "a", "b", "t"],
        [{"color": c} for c in ("gray", "red", "red", "green")],
        [("s", "a"), ("s", "b"), ("a", "t")],
    )
    v = verdict(g, {"s"}, {"t"}, ("red", "green"))
    assert v.kind == "exact" and v.partial_halt_steps == (1,)


def test_empty_program_compares_sets():
    g, _, _ = fixture("funnel")
    assert verdict(g, {"t"}, {"t"}, ()).kind == "exact"
    assert verdict(g, {"a"}, {"a", "b"}, ()).kind == "feasible"
    assert verdict(g, {"a"}, {"b"}, ()).kind == "infeasible"


def test_dead_branch():
    g, S, T = fixture("dead_branch")
    assert [set(reference.colour_programs(g, S, T, n)[0]) for n in (1, 2, 3)] == [
        set(), set(), {("red", "green", "yellow")},
    ]


def test_fourstep():
    g, S, T = fixture("fourstep")
    good = ("green", "brown", "red", "yellow")
    assert verdict(g, S, T, good).kind == "exact"
    detour = verdict(g, S, T, ("green", "purple", "red", "yellow"))
    assert detour.kind == "infeasible" and detour.trace[-1] > T
    assert set(reference.colour_programs(g, S, T, 4)[0]) == {good}


def test_threestep():
    g, S, T = fixture("threestep")
    routes = {("green", "red", "yellow"), ("green", "blue", "yellow")}
    assert all(verdict(g, S, T, p).kind == "feasible" for p in routes)
    assert set(reference.colour_programs(g, S, T, 3)[1]) == routes


def test_twofeature_criteria():
    g, S, T = fixture("twofeature")
    atom = instances._atom
    assert verdict(g, S, T, [atom("n", "<=", 1), atom("n", "<=", 2)]).kind == "exact"
    blunt = verdict(g, S, T, [atom("color", "=", "red"), atom("color", "=", "green")])
    assert blunt.kind == "infeasible" and blunt.trace[-1] > T


def test_missing_values_fail_order_tests():
    atom = instances._atom
    assert reference.evaluate(atom("n", "=", None), {})
    assert not reference.evaluate(atom("n", "<=", 5), {"n": None})
    assert reference.evaluate({"any": [atom("n", ">", 5), atom("n", "=", None)]}, {})
    assert not reference.evaluate({"all": [atom("n", ">=", 1), atom("c", "=", "red")]}, {"n": 2})


@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    def texts(seed):
        return [(i.graph_text(), i.source_text(), i.target_text()) for i in instances.WORKLOADS[workload](seed)]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_metric_lists_match_benchmark_json():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(instances.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


def test_tracer_restores_what_it_wraps():
    from walkmine import graph, scp, stp
    from tracer import Tracer

    before = (scp.classify_scp, stp.minimal_covers, graph.DirectedGraph.out_mask)
    t = Tracer()
    t.install()
    assert scp.classify_scp is not before[0]
    t.uninstall()
    assert (scp.classify_scp, stp.minimal_covers, graph.DirectedGraph.out_mask) == before
