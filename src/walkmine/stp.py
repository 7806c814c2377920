"""Criterion programs over feature vectors: simulation and mining.

A toset program is a sequence of criteria; each step keeps the out-neighbours
whose feature vectors satisfy the step's criterion. Mining runs in two
phases: a backward search over chains of (B, M, distance) elements from the
target, then per-chain criterion synthesis that separates each element's B
from the vertices a run could actually leak to. The default search widens M
to the whole filtered frontier (mirroring the colour miner's repair); the
``literal`` fidelity, in :mod:`walkmine.literal`, keeps the uncorrected
in-neighbourhood pools.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from . import literal
from .bitset import VertexSet, iter_bits, mask_of
from .criterion import Criterion, TosetProgram, satisfies, separating_program
from .graph import DirectedGraph, iterated_out
from .mining import EXACT, FEASIBLE, LITERAL, Budget, MiningConfig, MiningReport, run_levels, zero_stats
from .scp import Classification, classify_trace
from .setcover import minimal_covers


def select_by_criterion(g: DirectedGraph, A: VertexSet, crit: Criterion) -> VertexSet:
    """Subset of ``A`` whose feature vectors satisfy the criterion."""
    mask = 0
    for v in A:
        if satisfies(g.rows[v], crit):
            mask |= 1 << v
    return VertexSet(g.n, mask)


def _steps_of(program) -> tuple:
    return program.steps if isinstance(program, TosetProgram) else tuple(program)


def simulate_stp(g: DirectedGraph, source: VertexSet, program) -> list[VertexSet]:
    """Endpoint trace E0..En of a criterion program run from ``source``."""
    trace = [source]
    cur = source
    for crit in _steps_of(program):
        cur = select_by_criterion(g, VertexSet(g.n, g.out_image(cur.mask)), crit)
        trace.append(cur)
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

# chain: tuple of (B, M, dist) triples, B and M int masks, head first; the
# tail is at the target


def mine_exact_stp(g, source, target, config: MiningConfig) -> Iterator[MiningReport]:
    """One report per length 0..max_len listing exact criterion programs."""
    return _mine_stp(g, source, target, config, EXACT)


def mine_feasible_stp(g, source, target, config: MiningConfig) -> Iterator[MiningReport]:
    return _mine_stp(g, source, target, config, FEASIBLE)


def _mine_stp(g, source, target, config, mode) -> Iterator[MiningReport]:
    make_level = literal.stp_level if config.fidelity == LITERAL else _stp_level
    return run_levels(g, source, target, config, "stp", mode, TosetProgram(()), make_level)


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


def _stp_level(g, source, target, mode, accepted=None):
    """Repaired criterion search; chains reaching the source go to ``accepted``."""
    S = source.mask
    seeds = literal.seed_chains(target.mask, mode)

    def level(length, positions, budget):
        stats = zero_stats("stp")
        found: dict = {}
        exhausted = True
        queue = deque(seeds)
        while queue:
            if not budget.charge_triple():
                exhausted = False
                break
            chain = queue.popleft()
            stats["chains_expanded"] += 1
            B, M, dist = chain[0]
            if dist == length:
                if B & ~S == 0 and S & ~M == 0:
                    if accepted is not None:
                        accepted.append(chain)
                    # the E side of a step is what the previous element's M
                    # can reach outside this element's M
                    elements = (
                        (b, m, g.out_image(prev_m) & ~m)
                        for (_, prev_m, _), (b, m, _) in zip(chain, chain[1:])
                    )
                    program = separating_program(g, elements)
                    if program is None:
                        stats["inseparable"] += 1
                    elif classify_stp(g, source, target, program).kind in (EXACT, mode):
                        key = program.key(g)
                        if key in found:
                            stats["dedup_hits"] += 1
                        else:
                            found[key] = program
                            budget.charge_program()
                continue
            safe = _filtered_frontier(g, positions[length - dist - 1], B, M)
            pool = safe & g.in_image(B)
            # Bases that will receive a criterion stay vector-homogeneous, so each
            # synthesized step selects a single feature class; the head element is
            # dropped during synthesis and may mix classes.
            if dist + 1 == length:
                pools = [pool]
            else:
                pools = _class_masks(g, pool)
            for sub in pools:
                candidates = [(v, g.out_mask(v) & B) for v in iter_bits(sub)]
                for ids in minimal_covers(B, candidates):
                    stats["pseudo_bases"] += 1
                    queue.append(((mask_of(ids), safe, dist + 1),) + chain)
        return [found[k] for k in sorted(found)], exhausted, stats

    return level


def _accepted_chains(g, source, target, length, mode=EXACT):
    """Test hook: the accepted chains of one level of the default search."""
    accepted: list = []
    positions = [iterated_out(g, source, j).mask for j in range(length + 1)]
    level = _stp_level(g, source, target, mode, accepted)
    level(length, positions, Budget(MiningConfig(max_len=length)))
    return [
        tuple((VertexSet(g.n, B), VertexSet(g.n, M), dist) for B, M, dist in chain)
        for chain in accepted
    ]
