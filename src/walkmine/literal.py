"""The ``literal`` fidelity: uncorrected transcriptions of both backward searches.

Kept for comparison with the repaired searches in :mod:`walkmine.scp` and
:mod:`walkmine.stp`. Each factory returns a one-search list for
:func:`walkmine.mining.run_levels`; the search yields once per popped state
and lists its programs into the driver's ``found``. Unlike the repaired
searches, a literal search does not restart at each length: the states
whose suffix reaches one viable length are carried into the next viable
length's queue and extended from there.
"""

from __future__ import annotations

from collections import deque

from .bitset import iter_bits
from .criterion import InseparableError, TosetProgram, compute_criterion
from .mining import EXACT, start_states
from .setcover import cover_masks, pseudo_bases


def _scp_seeds(g, target: int, mode: str) -> list:
    if mode == EXACT:
        return [((), target, target)]
    seeds = []
    for c in range(g.num_colors):
        cmask = g.color_mask(c)
        unsafe = g.in_image(cmask & ~target)
        starters = g.in_image(cmask & target)
        for d in range(g.num_colors):
            safe = g.color_mask(d) & ~unsafe
            seeds.extend(((c,), 1 << v, safe) for v in iter_bits(safe & starters))
    return seeds


def scp_searches(g, source, target, mode):
    """Uncorrected colour search: pools are per-colour slices of the frontier."""
    S = source.mask
    carry = deque(_scp_seeds(g, target.mask, mode))

    def search(length, positions, budget, found, stats):
        nonlocal carry
        queue, carry = carry, deque()
        seen = set(queue)
        while queue and budget.charge_triple():
            p, B, M = queue.popleft()
            stats["triples_expanded"] += 1
            n = len(p)
            if n == length:
                first_step = g.out_image(B) & g.color_mask(p[0]) if p else B
                accepted = B & ~S == 0 and S & ~g.in_image(first_step) == 0
                if accepted and p not in found and budget.charge_program():
                    found[p] = p
                carry.append((p, B, M))
            else:
                pool = positions[length - n - 1] & g.in_image(B)
                for c in g.colors_in(B):
                    newp = (c,) + p
                    for d in g.colors_in(pool):
                        nd = pool if length == n + 1 else g.color_mask(d) & pool
                        for basis in pseudo_bases(g, nd, B, M, c, budget.expired):
                            stats["pseudo_bases"] += 1
                            triple = (newp, basis, nd)
                            if triple in seen:
                                stats["dedup_hits"] += 1
                                continue
                            seen.add(triple)
                            queue.append(triple)
            yield

    return [search]


def _strict_filter(g, pool: int, B: int, M: int) -> int:
    """Uncorrected per-vertex filter: only a vertex's own B-children count."""
    e_global = g.out_image(pool) & ~M
    safe = 0
    for v in iter_bits(pool):
        out = g.out_mask(v)
        b_vecs = {g.rows[u] for u in iter_bits(out & B)}
        if all(g.rows[u] not in b_vecs for u in iter_bits(out & e_global)):
            safe |= 1 << v
    return safe


def stp_searches(g, source, target, mode):
    """Uncorrected criterion search: in-neighbourhood pools, synthesis afterwards."""
    S = source.mask
    carry = deque(((B, M, 0),) for _, B, M in start_states(target.mask, mode, ()))

    def search(length, positions, budget, found, stats):
        nonlocal carry
        accepted = []
        queue, carry = carry, deque()
        while queue and budget.charge_triple():
            chain = queue.popleft()
            stats["chains_expanded"] += 1
            B, M, _ = chain[0]
            n = len(chain)
            if n - 1 == length:
                if B & ~S == 0 and S & ~M == 0:
                    accepted.append(chain)
                carry.append(chain)
            else:
                pool = _strict_filter(g, g.in_image(B) & positions[length - n], B, M)
                inside = pool & ~g.in_image(~M & ((1 << g.n) - 1))
                for basis in cover_masks(g, B, inside, budget.expired):
                    stats["pseudo_bases"] += 1
                    queue.append(((basis, pool, n),) + chain)
            yield
        keys = set()
        for chain in accepted:
            elements = [(B, M, positions[length - dist] & ~M) for B, M, dist in chain[1:]]
            try:
                program = TosetProgram(tuple(
                    compute_criterion(g.vectors(B), g.vectors(M), g.vectors(E), g.schema)
                    for B, M, E in elements
                ))
            except InseparableError:
                stats["inseparable"] += 1
                continue
            key = program.key(g)
            if key in keys:
                stats["dedup_hits"] += 1
            elif budget.charge_program():
                keys.add(key)
                found[program] = key

    return [search]
