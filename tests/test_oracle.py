import random

import numpy as np
import pytest

from helpers import color_graph, name_program, vs
from oracle_reference import (
    CapExceededError,
    brute_force_mine_scp,
    count_walks,
    minimal_covers_bruteforce,
    walk_traces,
)
from walkmine import VertexSet
from walkmine.generate import random_instance


def test_brute_force_funnel(funnel):
    g, S, T = funnel
    exact, feasible = brute_force_mine_scp(g, S, T, 2)
    assert exact == feasible == {name_program(g, "red", "green")}
    exact1, feasible1 = brute_force_mine_scp(g, S, T, 1)
    assert exact1 == feasible1 == set()


def test_brute_force_three_step(threestep):
    g, S, T = threestep
    exact, feasible = brute_force_mine_scp(g, S, T, 3)
    assert exact == set()
    assert feasible == {
        name_program(g, "green", "red", "yellow"),
        name_program(g, "green", "blue", "yellow"),
    }


def test_brute_force_cap(funnel):
    g, S, T = funnel
    with pytest.raises(CapExceededError):
        brute_force_mine_scp(g, S, T, 2, cap=g.num_colors**2 - 1)


def test_count_walks(funnel):
    g, S, T = funnel
    assert count_walks(g, S, T, 2) == 2
    assert count_walks(g, S, T, 1) == 0
    with pytest.raises(ValueError):
        count_walks(g, S, T, -1)
    diamond = color_graph(
        ["a", "b1", "b2", "c"],
        ["red", "blue", "blue", "red"],
        [("a", "b1"), ("a", "b2"), ("b1", "c"), ("b2", "c")],
    )
    assert count_walks(diamond, vs(diamond, "a"), vs(diamond, "c"), 2) == 2


def test_count_walks_matches_matrix_power():
    rng = random.Random(2024)
    for _ in range(25):
        inst = random_instance(rng.randrange(1 << 30))
        g, S, T = inst.graph, inst.source, inst.target
        adj = np.zeros((g.n, g.n), dtype=object)
        for u in range(g.n):
            for v in VertexSet(g.n, g.out_mask(u)):
                adj[u, v] = 1
        length = rng.randint(1, 4)
        power = np.linalg.matrix_power(adj, length)
        expected = sum(power[u, v] for u in S for v in T)
        assert count_walks(g, S, T, length) == expected


def test_walk_traces_funnel(funnel):
    g, S, T = funnel
    assert walk_traces(g, S, T, 2) == {name_program(g, "red", "green")}
    with pytest.raises(ValueError):
        walk_traces(g, S, T, 0)


def test_walk_traces_skip_uncoloured():
    g = color_graph(
        ["s", "m", "r", "t"],
        ["blue", None, "red", "green"],
        [("s", "m"), ("s", "r"), ("m", "t"), ("r", "t")],
    )
    S, T = vs(g, "s"), vs(g, "t")
    assert count_walks(g, S, T, 2) == 2
    assert walk_traces(g, S, T, 2) == {name_program(g, "red", "green")}


def test_walk_traces_cap():
    wide = color_graph(
        [f"u{i}" for i in range(8)] + ["s", "t"],
        ["red"] * 8 + ["blue", "green"],
        [("s", f"u{i}") for i in range(8)] + [(f"u{i}", "t") for i in range(8)],
    )
    S, T = vs(wide, "s"), vs(wide, "t")
    assert count_walks(wide, S, T, 2) == 8
    with pytest.raises(CapExceededError):
        walk_traces(wide, S, T, 2, cap=7)


def test_traces_cover_feasible_programs():
    rng = random.Random(99)
    compared = 0
    for _ in range(40):
        inst = random_instance(rng.randrange(1 << 30))
        g, S, T = inst.graph, inst.source, inst.target
        for length in (1, 2, 3):
            _, feasible = brute_force_mine_scp(g, S, T, length)
            traces = walk_traces(g, S, T, length, cap=10**7)
            assert feasible <= traces
            compared += len(feasible)
    assert compared > 30


def test_minimal_covers_bruteforce():
    g = color_graph(
        ["p", "q", "r", "x", "y"],
        ["red"] * 5,
        [("p", "x"), ("q", "x"), ("q", "y"), ("r", "y")],
    )
    universe = vs(g, "p", "q", "r")
    images = {g.vertex_id(n): VertexSet(g.n, g.out_mask(g.vertex_id(n))) for n in "pqr"}
    covers = minimal_covers_bruteforce(universe, images, vs(g, "x", "y"))
    assert covers == {vs(g, "q"), vs(g, "p", "r")}


def test_minimal_covers_bruteforce_cap():
    universe = VertexSet.full(21)
    images = {v: VertexSet.full(21) for v in range(21)}
    with pytest.raises(CapExceededError):
        minimal_covers_bruteforce(universe, images, VertexSet.single(21, 0))
