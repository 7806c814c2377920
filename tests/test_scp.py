import dataclasses
import itertools
import pickle
import random

import pytest

from helpers import color_graph, name_program, vs
from paper_reference import covers, enumerate_pseudo_bases, injects, outspans, spans
from walkmine.bitset import VertexSet
from walkmine.scp import (
    Classification,
    classify_scp,
    simulate_scp,
)


def funnel_graph():
    return color_graph(
        ["s1", "s2", "a", "b", "c", "t"],
        ["blue", "blue", "red", "red", "blue", "green"],
        [("s1", "a"), ("s2", "b"), ("a", "t"), ("b", "t"), ("a", "c")],
    )


def test_simulate_trace():
    g = funnel_graph()
    S = vs(g, "s1", "s2")
    trace = simulate_scp(g, S, name_program(g, "red", "green"))
    assert trace == [S, vs(g, "a", "b"), vs(g, "t")]


def test_simulate_empty_program():
    g = funnel_graph()
    S = vs(g, "s1")
    assert simulate_scp(g, S, ()) == [S]


def test_classify_exact():
    g = funnel_graph()
    cls = classify_scp(g, vs(g, "s1", "s2"), vs(g, "t"), name_program(g, "red", "green"))
    assert cls.kind == "exact"
    assert cls.succeeded
    assert cls.halt_step is None
    assert cls.partial_halt_steps == ()
    assert cls.trace[-1] == vs(g, "t")


def test_verdict_survives_pickling():
    g = funnel_graph()
    cls = classify_scp(g, vs(g, "s1", "s2"), vs(g, "t", "c"), name_program(g, "red", "green"))
    assert pickle.loads(pickle.dumps(cls)) == cls


def test_verdict_is_a_frozen_value():
    g = funnel_graph()
    cls = classify_scp(g, vs(g, "s1", "s2"), vs(g, "t", "c"), name_program(g, "red", "green"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cls.kind = "exact"
    assert not hasattr(cls, "__dict__")
    again = dataclasses.replace(cls, kind="exact")
    assert again == Classification("exact", cls.halt_step, cls.partial_halt_steps, cls.trace, cls.partial_halt_masks)
    twin = classify_scp(g, vs(g, "s1", "s2"), vs(g, "t", "c"), name_program(g, "red", "green"))
    assert twin == cls and twin is not cls and hash(twin) == hash(cls)


def test_classify_feasible_strict_subset():
    g = funnel_graph()
    cls = classify_scp(g, vs(g, "s1", "s2"), vs(g, "t", "c"), name_program(g, "red", "green"))
    assert cls.kind == "feasible" and cls.succeeded


def test_classify_infeasible_leak():
    g = funnel_graph()
    # blue step from {a,b} reaches c, outside T
    cls = classify_scp(g, vs(g, "s1"), vs(g, "t"), name_program(g, "red", "blue"))
    assert cls.kind == "infeasible" and not cls.succeeded


def test_classify_complete_halt():
    g = funnel_graph()
    cls = classify_scp(g, vs(g, "s1", "s2"), vs(g, "t"), name_program(g, "blue", "green"))
    assert cls.kind == "complete_halt"
    assert cls.halt_step == 1
    assert not cls.succeeded


def test_classify_partial_halt_recorded():
    g = color_graph(
        ["s", "a", "b", "t"],
        ["gray", "red", "red", "green"],
        [("s", "a"), ("s", "b"), ("a", "t")],
    )
    cls = classify_scp(g, vs(g, "s"), vs(g, "t"), name_program(g, "red", "green"))
    # b has no green successor, but the run still lands exactly on T
    assert cls.kind == "exact"
    assert cls.partial_halt_steps == (1,)
    assert cls.partial_halt_vertices == (vs(g, "b"),)


def test_classify_empty_program_compares_sets():
    g = funnel_graph()
    assert classify_scp(g, vs(g, "t"), vs(g, "t"), ()).kind == "exact"
    assert classify_scp(g, vs(g, "a"), vs(g, "a", "b"), ()).kind == "feasible"
    assert classify_scp(g, vs(g, "a"), vs(g, "b"), ()).kind == "infeasible"


def test_predicates_on_funnel():
    g = funnel_graph()
    S, mid, T = vs(g, "s1", "s2"), vs(g, "a", "b"), vs(g, "t")
    red, green, blue = (g.color_id(c) for c in ("red", "green", "blue"))
    assert covers(g, S, mid, red)
    assert injects(g, S, mid, red)
    assert not outspans(g, S, mid, red)
    assert spans(g, S, mid, red)
    assert covers(g, mid, T, green) and spans(g, mid, T, green)
    # the blue image of {a} is {c}: no overlap with T at all
    assert not injects(g, vs(g, "a"), T, blue)
    assert outspans(g, vs(g, "a"), T, blue)
    assert not covers(g, vs(g, "s1"), mid, red)


def test_injects_needs_nonempty_image():
    g = funnel_graph()
    assert not injects(g, vs(g, "t"), vs(g, "a"), g.color_id("red"))


def test_pseudo_bases_on_funnel():
    g = funnel_graph()
    T = vs(g, "t")
    out = list(enumerate_pseudo_bases(g, vs(g, "a", "b"), T, T, g.color_id("green")))
    assert out == [vs(g, "a"), vs(g, "b")]


def test_pseudo_bases_pre_exclude_leaky_members():
    g = color_graph(
        ["u", "w", "t", "t2"],
        ["gray", "gray", "green", "green"],
        [("u", "t"), ("u", "t2"), ("w", "t")],
    )
    T = vs(g, "t")
    green = g.color_id("green")
    # u's green image {t, t2} escapes M={t}, so only w survives
    assert list(enumerate_pseudo_bases(g, vs(g, "u", "w"), T, T, green)) == [vs(g, "w")]
    # with the laxer safe set both singletons work
    assert list(enumerate_pseudo_bases(g, vs(g, "u", "w"), T, vs(g, "t", "t2"), green)) == [
        vs(g, "u"),
        vs(g, "w"),
    ]


def test_pseudo_bases_empty_b_rejected():
    g = funnel_graph()
    with pytest.raises(ValueError):
        list(enumerate_pseudo_bases(g, g.full_set(), VertexSet(g.n), g.full_set(), 0))


def test_pseudo_bases_match_bruteforce_on_random_graphs():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randint(2, 9)
        names = [f"v{i}" for i in range(n)]
        colors = [rng.choice("rgb") for _ in range(n)]
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3 * n))}
        g = color_graph(names, colors, [(names[u], names[w]) for u, w in edges])
        c = g.color_id(rng.choice("rgb"))
        if c < 0:
            continue
        pool = VertexSet.from_ids(n, [i for i in range(n) if rng.random() < 0.6])
        B = VertexSet.from_ids(n, [i for i in range(n) if rng.random() < 0.3])
        M = VertexSet(n, B.mask | sum(1 << i for i in range(n) if rng.random() < 0.4))
        if not B:
            continue
        got = list(enumerate_pseudo_bases(g, pool, B, M, c))
        # reference: scan all subsets for minimal covering injections into M
        ok = []
        for r in range(1, len(pool) + 1):
            for combo in itertools.combinations(pool.ids(), r):
                cand = VertexSet.from_ids(n, combo)
                if covers(g, cand, B, c) and not outspans(g, cand, M, c):
                    ok.append(set(combo))
        minimal = [s for s in ok if not any(o < s for o in ok)]
        assert {frozenset(b.ids()) for b in got} == {frozenset(s) for s in minimal}
        # deterministic lexicographic order by sorted member ids
        assert [b.ids() for b in got] == sorted(b.ids() for b in got)
