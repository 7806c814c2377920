"""Criterion programs over feature vectors: simulation and mining.

A toset program is a sequence of criteria; each step keeps the out-neighbours
whose feature vectors satisfy the step's criterion. The default miner gives
:func:`walkmine.mining.run_levels` one search to race alone: the shared
backward search over states (p, B, M), p a criterion suffix, which expands
each (B, M) once for all the suffixes reaching it. Its hooks name B's
feature-vector twins (:meth:`DirectedGraph.twins`) as the vertices a step
keeping B also keeps, split pools into feature-vector classes, and label a
step with the criterion that separates B from the vertices a run could leak
to, a function of B, M and the safe set alone, synthesised once per run for
each distinct tuple of the row classes its three sides meet
(:func:`walkmine.criterion.criterion_memo`); the search puts it in front of
each suffix of the group.
"""

from __future__ import annotations

from typing import Iterator

from .bitset import VertexSet
from .criterion import Criterion, TosetProgram, criterion_mask, criterion_memo
from .graph import DirectedGraph
from .mining import EXACT, FEASIBLE, MiningConfig, MiningReport, backward_search, run_levels
from .scp import Classification, classify_run
# unused here, but bench/test_reference.py reads stp.minimal_covers
from .setcover import minimal_covers


def select_by_criterion(g: DirectedGraph, A: VertexSet, crit: Criterion) -> VertexSet:
    """Subset of ``A`` whose feature vectors satisfy the criterion."""
    g.check_universe(A)
    return VertexSet(g.n, A.mask & criterion_mask(g, crit))


def simulate_stp(g: DirectedGraph, source: VertexSet, program) -> list[VertexSet]:
    """Endpoint trace E0..En of a criterion program run from ``source``."""
    g.check_universe(source)
    trace = [source]
    cur = source.mask
    for crit in program:
        cur = g.out_image(cur) & criterion_mask(g, crit)
        trace.append(VertexSet(g.n, cur))
    return trace


def classify_stp(g: DirectedGraph, source: VertexSet, target: VertexSet, program) -> Classification:
    keeps = (criterion_mask(g, crit) for crit in program)
    return classify_run(g, source, target, keeps)


def consistent(g: DirectedGraph, A: VertexSet, b_side: VertexSet, e_side: VertexSet) -> bool:
    """No feature-vector collision between the two out-neighbour groups of A."""
    g.check_universe(A, b_side, e_side)
    if b_side.mask & e_side.mask:
        raise ValueError("the two sides must be disjoint")
    out = g.out_image(A.mask)
    if (b_side.mask | e_side.mask) & ~out:
        raise ValueError("both sides must be out-neighbours of A")
    return g.twins(b_side.mask) & e_side.mask == 0


# -- mining -------------------------------------------------------------------


def mine_exact_stp(g, source, target, config: MiningConfig) -> Iterator[MiningReport]:
    """One report per length 0..max_len listing exact criterion programs."""
    return _mine_stp(g, source, target, config, EXACT)


def mine_feasible_stp(g, source, target, config: MiningConfig) -> Iterator[MiningReport]:
    return _mine_stp(g, source, target, config, FEASIBLE)


def _mine_stp(g, source, target, config, mode) -> Iterator[MiningReport]:
    return run_levels(g, source, target, config, "stp", mode, TosetProgram(()), _stp_searches)


def _stp_searches(g, S: int, T: int, mode):
    """The repaired criterion search: one backward search over states (p, B, M)."""

    def split(pool, safe):
        # pools stay vector-homogeneous, so each synthesized step selects a
        # single feature class; classes come out by first member
        while pool:
            cls = pool & g.twins(pool & -pool)
            yield cls, safe
            pool &= ~cls

    # the search restarts at each length and meets the same states again
    step = criterion_memo(g)

    def label(B, M, safe):
        # every new state has M = safe, so the step's E side is what safe can
        # reach outside M, and the step's criterion is the same for all of
        # them; no safe vertex reaches a twin of B outside M, so it separates
        return step(B, M, g.out_image(safe) & ~M)

    return [backward_search(g, "stp", T, mode, g.twins, split, label)]
