"""Brute-force references that the tests check the miners against.

Slow, independent answers to what :mod:`walkmine.scp` and
:mod:`walkmine.setcover` compute: every colour program classified by
simulation, walks counted and traced vertex by vertex, and minimal covers
found by an exhaustive subset scan. The package does not ship them.
"""

from __future__ import annotations

import itertools

from walkmine.bitset import VertexSet
from walkmine.graph import DirectedGraph
from walkmine.scp import EXACT, FEASIBLE, classify_scp


class CapExceededError(RuntimeError):
    """The requested brute-force job is larger than the configured cap."""


def brute_force_mine_scp(
    g: DirectedGraph, source: VertexSet, target: VertexSet, length: int, cap: int = 10**6
) -> tuple[set, set]:
    """Classify every colour program of the given length by simulation.

    Returns ``(exact, feasible)`` as sets of colour-id tuples; exact programs
    are included in the feasible set. Raises :class:`CapExceededError` when
    the colour count to the power of the length exceeds ``cap``.
    """
    k = g.num_colors
    if k**length > cap:
        raise CapExceededError(f"{k}^{length} programs exceed the cap of {cap}")
    exact = set()
    feasible = set()
    for program in itertools.product(range(k), repeat=length):
        kind = classify_scp(g, source, target, program).kind
        if kind == EXACT:
            exact.add(program)
            feasible.add(program)
        elif kind == FEASIBLE:
            feasible.add(program)
    return exact, feasible


def count_walks(g: DirectedGraph, source: VertexSet, target: VertexSet, length: int) -> int:
    """Number of length-``length`` walks from the source set into the target."""
    g.check_universe(source, target)
    if length < 0:
        raise ValueError("a walk has no negative length")
    ways = {v: 1 for v in source}
    for _ in range(length):
        nxt: dict[int, int] = {}
        for v, w in ways.items():
            for u in VertexSet(g.n, g.out_mask(v)):
                nxt[u] = nxt.get(u, 0) + w
        ways = nxt
    return sum(w for v, w in ways.items() if v in target)


def walk_traces(
    g: DirectedGraph, source: VertexSet, target: VertexSet, length: int, cap: int = 10**6
) -> set:
    """Colour traces of all length-``length`` walks from S into T.

    The trace of a walk records the colours of its vertices after the start;
    walks passing through an uncoloured vertex yield no trace. Every feasible
    program of this length is such a trace, but not the other way round.
    """
    if length < 1:
        raise ValueError("walks of interest have at least one step")
    if count_walks(g, source, target, length) > cap:
        raise CapExceededError(f"more than {cap} walks to enumerate")
    memo: dict[tuple[int, int], frozenset] = {}

    def suffixes(v: int, depth: int) -> frozenset:
        if depth == 0:
            return frozenset([()]) if v in target else frozenset()
        key = (v, depth)
        if key not in memo:
            out = set()
            for u in VertexSet(g.n, g.out_mask(v)):
                c = g.color_of(u)
                if c < 0:
                    continue
                for rest in suffixes(u, depth - 1):
                    out.add((c,) + rest)
            memo[key] = frozenset(out)
        return memo[key]

    traces = set()
    for s in source:
        traces |= suffixes(s, length)
    return traces


def minimal_covers_bruteforce(universe: VertexSet, images: dict, B: VertexSet) -> set:
    """All minimal subsets of ``universe`` whose image union contains ``B``.

    ``images`` maps each universe vertex to its covered VertexSet. Exhaustive
    scan, capped at 20 universe vertices.
    """
    members = universe.ids()
    if len(members) > 20:
        raise CapExceededError("universe too large for exhaustive subset scan")
    covers = []
    for bits in range(1 << len(members)):
        chosen = [members[i] for i in range(len(members)) if bits >> i & 1]
        covered = 0
        for v in chosen:
            covered |= images[v].mask
        if B.mask & ~covered == 0:
            covers.append(frozenset(chosen))
    minimal = {
        c for c in covers if not any(other < c for other in covers)
    }
    return {VertexSet.from_ids(universe.size, c) for c in minimal}
