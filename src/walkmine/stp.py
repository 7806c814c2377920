"""Criterion programs over feature vectors: simulation and mining.

A toset program is a sequence of criteria; each step keeps the out-neighbours
whose feature vectors satisfy the step's criterion. The default miner gives
:func:`walkmine.mining.run_levels` one search to race alone: the shared
backward search over states (p, B, M), p a criterion suffix. Its hooks keep
the filtered frontier as the safe set and new M, split pools into
feature-vector classes, and label a step with the criterion that separates B
from the vertices a run could leak to. The ``literal`` fidelity, in
:mod:`walkmine.literal`, keeps the uncorrected in-neighbourhood pools and
synthesises criteria per accepted chain.
"""

from __future__ import annotations

from typing import Iterator

from . import literal
from .bitset import VertexSet, iter_bits, mask_of
from .criterion import Criterion, InseparableError, TosetProgram, compute_criterion, criterion_mask
from .graph import DirectedGraph
from .mining import EXACT, FEASIBLE, LITERAL, MiningConfig, MiningReport, backward_search, run_levels
from .scp import Classification, classify_trace
# unused here, but bench/test_reference.py reads stp.minimal_covers
from .setcover import minimal_covers


def select_by_criterion(g: DirectedGraph, A: VertexSet, crit: Criterion) -> VertexSet:
    """Subset of ``A`` whose feature vectors satisfy the criterion."""
    return VertexSet(g.n, A.mask & criterion_mask(g, crit))


def simulate_stp(g: DirectedGraph, source: VertexSet, program) -> list[VertexSet]:
    """Endpoint trace E0..En of a criterion program run from ``source``."""
    trace = [source]
    cur = source.mask
    for crit in getattr(program, "steps", program):
        cur = g.out_image(cur) & criterion_mask(g, crit)
        trace.append(VertexSet(g.n, cur))
    return trace


def classify_stp(g: DirectedGraph, source: VertexSet, target: VertexSet, program) -> Classification:
    return classify_trace(g, simulate_stp(g, source, program), target)


def consistent(g: DirectedGraph, A: VertexSet, b_side: VertexSet, e_side: VertexSet) -> bool:
    """No feature-vector collision between the two out-neighbour groups of A."""
    if b_side.mask & e_side.mask:
        raise ValueError("the two sides must be disjoint")
    out = g.out_image(A.mask)
    if (b_side.mask | e_side.mask) & ~out:
        raise ValueError("both sides must be out-neighbours of A")
    b_vecs = {g.rows[v] for v in b_side}
    return all(g.rows[v] not in b_vecs for v in e_side)


# -- mining -------------------------------------------------------------------


def mine_exact_stp(g, source, target, config: MiningConfig) -> Iterator[MiningReport]:
    """One report per length 0..max_len listing exact criterion programs."""
    return _mine_stp(g, source, target, config, EXACT)


def mine_feasible_stp(g, source, target, config: MiningConfig) -> Iterator[MiningReport]:
    return _mine_stp(g, source, target, config, FEASIBLE)


def _mine_stp(g, source, target, config, mode) -> Iterator[MiningReport]:
    make_searches = literal.stp_searches if config.fidelity == LITERAL else _stp_searches
    return run_levels(g, source, target, config, "stp", mode, TosetProgram(()), make_searches)


def _filtered_frontier(g, frontier: int, B: int, M: int) -> int:
    """Drop frontier vertices that could leak a B-looking vector outside M.

    A vertex stays only if none of its out-neighbours outside M carries a
    feature vector that also occurs in B; this is what keeps the later
    criterion synthesis solvable.
    """
    b_vecs = {g.rows[u] for u in iter_bits(B)}
    leaks = g.out_image(frontier) & ~M
    lookalikes = mask_of(u for u in iter_bits(leaks) if g.rows[u] in b_vecs)
    return frontier & ~g.in_image(lookalikes)


def _class_masks(g, pool_mask: int) -> list[int]:
    """Split a pool into feature-vector classes, ordered by first member."""
    classes: dict = {}
    for v in iter_bits(pool_mask):
        row = g.rows[v]
        classes[row] = classes.get(row, 0) | (1 << v)
    return list(classes.values())


def _stp_searches(g, source, target, mode):
    """The repaired criterion search: one backward search over states (p, B, M)."""

    def safe(state, base):
        return _filtered_frontier(g, base, state[1], state[2])

    def split(pool, safe):
        # pools stay vector-homogeneous, so each synthesized step selects a
        # single feature class
        return [(cls, safe) for cls in _class_masks(g, pool)]

    def label(state, safe, stats):
        # every new state has M = safe, so the step's E side is what safe can
        # reach outside M, and the step's criterion is the same for all of them
        p, B, M = state
        E = g.out_image(safe) & ~M
        try:
            crit = compute_criterion(g.vectors(B), g.vectors(M), g.vectors(E), g.schema)
        except InseparableError:
            stats["inseparable"] += 1
            return None
        return TosetProgram((crit,) + p.steps)

    def accept(p):
        return p.key(g) if classify_stp(g, source, target, p).kind in (EXACT, mode) else None

    return [backward_search(g, "stp", TosetProgram(()), target, mode, safe, split, label, accept)]
