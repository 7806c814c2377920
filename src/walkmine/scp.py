"""Colour programs: simulation, classification, predicates, and mining.

A colour program is a sequence of colour ids. Run from a vertex set, each
step moves to all out-neighbours and keeps those of the step's colour. The
miners search backwards from the target, maintaining triples (suffix, B, M)
whose meaning is: any start set sandwiched between B and M runs the suffix
into the target. The default search keeps that invariant exactly; the
``literal`` fidelity, in :mod:`walkmine.literal`, reproduces an uncorrected
variant kept for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import literal
from .bitset import VertexSet
from .graph import DirectedGraph
from .mining import EXACT, FEASIBLE, LITERAL, MiningConfig, MiningReport, backward_level, run_levels
from .setcover import pseudo_bases

INFEASIBLE = "infeasible"
COMPLETE_HALT = "complete_halt"


@dataclass(frozen=True)
class Classification:
    """Outcome of running a program: kind, halting data, full trace."""

    kind: str
    halt_step: Optional[int] = None
    partial_halt_steps: tuple[int, ...] = ()
    trace: tuple[VertexSet, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.kind in (EXACT, FEASIBLE)


def simulate_scp(g: DirectedGraph, source: VertexSet, program: tuple[int, ...]) -> list[VertexSet]:
    """Endpoint trace E0..En of a colour program run from ``source``."""
    trace = [source]
    cur = source.mask
    for c in program:
        cur = g.out_image(cur) & g.color_mask(c)
        trace.append(VertexSet(g.n, cur))
    return trace


def classify_trace(g: DirectedGraph, trace: list[VertexSet], target: VertexSet) -> Classification:
    """Classification core shared by colour and criterion programs.

    ``trace`` is the endpoint trace E0..En of a run. Step i halts partially
    when some vertex of E_i has no out-neighbour the step keeps; the step
    keeps part of E_i's out-image, so the kept vertices are E_{i+1}.
    """
    masks = [vs.mask for vs in trace]
    partial = tuple(i for i in range(len(masks) - 1) if masks[i] & ~g.in_image(masks[i + 1]))
    halt = next((i for i in range(1, len(masks)) if not masks[i]), None)
    final = masks[-1]
    if halt is not None:
        kind = COMPLETE_HALT
    elif final == target.mask:
        kind = EXACT
    elif final & ~target.mask == 0:
        kind = FEASIBLE
    else:
        kind = INFEASIBLE
    return Classification(kind, halt, partial, tuple(trace))


def classify_scp(
    g: DirectedGraph, source: VertexSet, target: VertexSet, program: tuple[int, ...]
) -> Classification:
    return classify_trace(g, simulate_scp(g, source, program), target)


# -- predicate algebra --------------------------------------------------------


def _image(g: DirectedGraph, amask: int, c: int) -> int:
    return g.out_image(amask) & g.color_mask(c)


def covers(g: DirectedGraph, A: VertexSet, B: VertexSet, c: int) -> bool:
    """Does the c-coloured out-image of A contain B?"""
    return B.mask & ~_image(g, A.mask, c) == 0


def outspans(g: DirectedGraph, A: VertexSet, B: VertexSet, c: int) -> bool:
    """Does the c-coloured out-image of A leak outside B?"""
    return _image(g, A.mask, c) & ~B.mask != 0


def injects(g: DirectedGraph, A: VertexSet, B: VertexSet, c: int) -> bool:
    """Is the c-coloured out-image of A nonempty and inside B?"""
    img = _image(g, A.mask, c)
    return img != 0 and img & ~B.mask == 0


def spans(g: DirectedGraph, A: VertexSet, B: VertexSet, c: int) -> bool:
    return covers(g, A, B, c) and not outspans(g, A, B, c)


def enumerate_pseudo_bases(
    g: DirectedGraph, pool: VertexSet, B: VertexSet, M: VertexSet, c: int
) -> Iterator[VertexSet]:
    """Minimal subsets of ``pool`` whose c-image covers B without leaving M.

    Members whose own c-image leaks outside M are excluded up front; the
    union of per-member images stays in M exactly when each one does. Yields
    in lexicographic order of sorted member ids.
    """
    if not B:
        raise ValueError("pseudo-bases are defined for nonempty B")
    for mask in pseudo_bases(g, pool.mask, B.mask, M.mask, c):
        yield VertexSet(g.n, mask)


# -- mining -------------------------------------------------------------------


def _mono_color(g: DirectedGraph, mask: int) -> Optional[int]:
    """The single colour shared by every vertex in ``mask``, if any."""
    c = g.color_of((mask & -mask).bit_length() - 1) if mask else -1
    return c if c >= 0 and mask & ~g.color_mask(c) == 0 else None


def mine_exact_scp(g, source, target, config: MiningConfig) -> Iterator[MiningReport]:
    """One report per length 0..max_len listing all exact colour programs."""
    return _mine_scp(g, source, target, config, EXACT)


def mine_feasible_scp(g, source, target, config: MiningConfig) -> Iterator[MiningReport]:
    """Like :func:`mine_exact_scp` but for feasibility (endpoints inside T)."""
    return _mine_scp(g, source, target, config, FEASIBLE)


def _mine_scp(g, source, target, config, mode) -> Iterator[MiningReport]:
    make_level = literal.scp_level if config.fidelity == LITERAL else _scp_level
    return run_levels(g, source, target, config, "scp", mode, (), make_level)


def _scp_level(g, source, target, mode):
    """Repaired colour search: every triple (p, B, M) keeps its invariant."""

    def expand(state, length, positions, stats):
        p, B, M = state
        n = len(p)
        c = _mono_color(g, B)
        if c is None:
            return
        base = positions[length - n - 1]
        # vertices whose c-image leaves M
        unsafe = g.in_image(g.color_mask(c) & ~M)
        newp = (c,) + p
        if n + 1 == length:
            # last step back: the pool is S itself
            if base & unsafe == 0:
                yield (newp, base, base)
            return
        inb = g.in_image(B)
        for d in g.colors_in(base & inb):
            safe = g.color_mask(d) & base & ~unsafe
            yield (newp, safe & inb, safe)

    def accept(p):
        return p if classify_scp(g, source, target, p).kind in (EXACT, mode) else None

    return backward_level(g, "scp", (), target, mode, expand, accept)
