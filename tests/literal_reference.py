"""The paper's uncorrected searches, kept as a reference for the tests.

Uncorrected transcriptions of both backward searches, for comparison with the
repaired searches in :mod:`walkmine.scp` and :mod:`walkmine.stp`; the package
no longer ships them. :func:`literal` maps each of the four miners to its
uncorrected twin. Each factory returns a one-search list for
:func:`walkmine.mining.run_levels`; the search yields once per popped state
and per branch of a cover listing, and lists its programs into the driver's
``found``. A refused charge trips the budget and ends the queue loop, after
which the criterion search still synthesises the chains it accepted. Unlike
the repaired searches, a literal search does not restart at each length: the
states whose suffix reaches one viable length are carried into the next
viable length's queue and extended from there. A length is viable for it,
in both modes, when the vertices that many steps from the source contain
the target; each search checks that itself, before it takes up the carried
states. Nor do they share the repaired safe-set rule: each keeps its own
per-colour or per-vertex filter.
"""

from __future__ import annotations

from collections import deque
from itertools import takewhile

from walkmine.bitset import iter_bits, mask_of
from walkmine.criterion import TosetProgram, criterion_memo
from walkmine.mining import EXACT, FEASIBLE, run_levels, start_states
from walkmine.scp import mine_exact_scp, mine_feasible_scp
from walkmine.setcover import cover_masks
from walkmine.stp import mine_exact_stp, mine_feasible_stp


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


def scp_searches(g, S: int, T: int, mode):
    """Uncorrected colour search: pools are per-colour slices of the frontier."""
    carry = deque(_scp_seeds(g, T, mode))

    def search(length, positions, budget, found, stats):
        nonlocal carry
        if T & ~positions[length]:
            return
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
                    found[p] = None
                carry.append((p, B, M))
            else:
                pool = positions[length - n - 1] & g.in_image(B)
                for c in g.colors_in(B):
                    cmask = g.color_mask(c)
                    if B & ~cmask:
                        continue  # no c-image covers B
                    # members whose own c-image leaves M are excluded up front
                    newp, leaky = (c,) + p, g.in_image(cmask & ~M)
                    for d in g.colors_in(pool):
                        nd = pool if length == n + 1 else g.color_mask(d) & pool
                        for basis in (yield from cover_masks(g, B, nd & ~leaky, budget)) or ():
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
    """Uncorrected per-vertex filter: only the twins of a vertex's own B-children count."""
    e_global = g.out_image(pool) & ~M
    outs = ((v, g.out_mask(v)) for v in iter_bits(pool))
    return mask_of(v for v, out in outs if g.twins(out & B) & out & e_global == 0)


def stp_searches(g, S: int, T: int, mode):
    """Uncorrected criterion search: in-neighbourhood pools, synthesis afterwards."""
    carry = deque(((B, M, 0),) for _, B, M in start_states(T, mode))
    step = criterion_memo(g)

    def search(length, positions, budget, found, stats):
        nonlocal carry
        if T & ~positions[length]:
            return
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
                for basis in (yield from cover_masks(g, B, inside, budget)) or ():
                    stats["pseudo_bases"] += 1
                    queue.append(((basis, pool, n),) + chain)
            yield
        for chain in accepted:
            crits = (step(B, M, positions[length - dist] & ~M) for B, M, dist in chain[1:])
            program = TosetProgram(tuple(takewhile(lambda crit: crit is not None, crits)))
            if len(program) < len(chain) - 1:
                stats["inseparable"] += 1
                continue
            if program in found:
                stats["dedup_hits"] += 1
            elif budget.charge_program():
                found[program] = None

    return [search]


# package miner -> (engine, mode, empty program, uncorrected searches, extra stats);
# only the uncorrected criterion search meets inseparable chains, so only it counts them
_LITERAL = {
    mine_exact_scp: ("scp", EXACT, (), scp_searches, ()),
    mine_feasible_scp: ("scp", FEASIBLE, (), scp_searches, ()),
    mine_exact_stp: ("stp", EXACT, TosetProgram(()), stp_searches, ("inseparable",)),
    mine_feasible_stp: ("stp", FEASIBLE, TosetProgram(()), stp_searches, ("inseparable",)),
}


def literal(miner):
    """``miner``'s uncorrected twin, with the same signature and report stream shape."""
    engine, mode, empty, make_searches, extra_stats = _LITERAL[miner]

    def mine(g, source, target, config):
        return run_levels(g, source, target, config, engine, mode, empty, make_searches, extra_stats)

    mine.__name__ = f"{miner.__name__}-literal"
    return mine
