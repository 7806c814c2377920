"""Colour programs: simulation, classification, predicates, and mining.

A colour program is a sequence of colour ids. Run from a vertex set, each
step moves to all out-neighbours and keeps those of the step's colour. The
backward search works from the target, maintaining triples (suffix, B, M)
whose meaning is: any start set sandwiched between B and M runs the suffix
into the target. The default miner keeps that invariant exactly, and gives
:func:`walkmine.mining.run_levels` two searches to race: the shared backward
search, whose hooks name B's one colour and split pools into colour classes,
and a forward subset-construction search over endpoint sets; the first to
finish answers each length. The ``literal`` fidelity, in
:mod:`walkmine.literal`, reproduces an uncorrected variant of the backward
search kept for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import literal
from .bitset import VertexSet
from .graph import DirectedGraph
from .mining import (
    EXACT, FEASIBLE, LITERAL, MiningConfig, MiningReport, backward_search, run_levels,
)
from .setcover import pseudo_bases

INFEASIBLE = "infeasible"
COMPLETE_HALT = "complete_halt"

# the searches repaired mining races, in the order they take their turns
SEARCHES = ("forward", "backward")
_FORWARD_STATS = ("sets_expanded",)


@dataclass(frozen=True)
class Classification:
    """Outcome of running a program: kind, halting data, full trace.

    ``partial_halt_masks`` holds, for each step i of ``partial_halt_steps``
    in turn, the mask of the vertices of E_i that the step strands.
    """

    kind: str
    halt_step: Optional[int] = None
    partial_halt_steps: tuple[int, ...] = ()
    trace: tuple[VertexSet, ...] = ()
    partial_halt_masks: tuple[int, ...] = ()

    @property
    def succeeded(self) -> bool:
        return self.kind in (EXACT, FEASIBLE)

    @property
    def partial_halt_vertices(self) -> tuple[VertexSet, ...]:
        """The stranded vertices of each partial-halt step, as vertex sets."""
        return tuple(VertexSet(self.trace[0].size, mask) for mask in self.partial_halt_masks)


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
    partial, stranded = [], []
    for i in range(len(masks) - 1):
        stuck = masks[i] & ~g.in_image(masks[i + 1])
        if stuck:
            partial.append(i)
            stranded.append(stuck)
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
    return Classification(kind, halt, tuple(partial), tuple(trace), tuple(stranded))


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
    if config.fidelity == LITERAL:
        return run_levels(g, source, target, config, "scp", mode, (), literal.scp_searches)
    return run_levels(g, source, target, config, "scp", mode, (), _scp_searches, _FORWARD_STATS)


def _scp_searches(g, source, target, mode):
    """The repaired colour searches, named by :data:`SEARCHES` in the order
    :func:`walkmine.mining.run_levels` races them."""

    def safe(state, base):
        _, B, M = state
        c = _mono_color(g, B)
        # vertices whose c-image leaves M are unsafe
        return None if c is None else base & ~g.in_image(g.color_mask(c) & ~M)

    def split(pool, safe):
        return [(pool & g.color_mask(d), safe & g.color_mask(d)) for d in g.colors_in(pool)]

    def label(state, safe, stats):
        return (_mono_color(g, state[1]),) + state[0]

    def accept(p):
        return p if classify_scp(g, source, target, p).kind in (EXACT, mode) else None

    K = [target.mask]  # K[r]: the vertices with a walk of r steps into T
    searches = {
        "forward": lambda *args: _forward_search(g, source.mask, K, mode, *args),
        "backward": backward_search(g, "scp", (), target, mode, safe, split, label, accept),
    }
    return [searches[name] for name in SEARCHES]


def _forward_search(g, S: int, K: list, mode, length, positions, budget, found, stats):
    """Forward subset-construction search, one budget charge per step.

    A colour program is a word over the automaton v -c-> u (an edge v->u
    into a vertex of colour c), and the endpoint set of a run is a state of
    its powerset automaton. Depth by depth from {S}, each distinct set is
    expanded into its colour classes, keeping a class only if it meets K[r],
    the vertices with a walk of r steps into T, r the steps then left; ``K``
    starts as [T] and is extended in place, so later lengths reuse it. At
    the last depth a class must equal T (exact mode), or be nonempty and
    inside T. The last step lists the programs through the expanded sets
    into ``found``, depth-first and in lexicographic order; each listed
    program charges the budget too, so the caps bound the listing as they
    bound the expansion.
    """
    T = K[0]
    while len(K) < length:
        K.append(g.in_image(K[-1]))
    steps = []  # per depth: {expanded set: [(colour, next set)]}, colours ascending
    layer = [S]
    for depth in range(length):
        keep, moves, nxt = K[length - depth - 1], {}, {}
        steps.append(moves)
        for E in layer:
            if not budget.charge_triple():
                return
            stats["sets_expanded"] += 1
            image = g.out_image(E) if depth else positions[1]
            moves[E] = out = []
            for c in g.colors_in(image & keep):
                X = image & g.color_mask(c)
                if depth + 1 < length or X == T or (mode == FEASIBLE and X & ~T == 0):
                    out.append((c, X))
                    nxt[X] = None
            yield
        layer = list(nxt)
    # live[d]: the sets at depth d with a path of moves to an accepted set
    live = [set(layer)]
    for moves in reversed(steps):
        live.append({E for E, out in moves.items() if any(X in live[-1] for _, X in out)})
    live.reverse()
    prefix, stack = [], [iter(steps[0][S])] if S in live[0] else []
    while stack:  # stack[d] walks the moves out of the depth-d set; prefix holds their colours
        move = next((m for m in stack[-1] if m[1] in live[len(stack)]), None)
        if move is None:
            stack.pop()
            if prefix:
                prefix.pop()
        elif len(stack) < length:
            prefix.append(move[0])
            stack.append(iter(steps[len(stack)][move[1]]))
        elif (p := (*prefix, move[0])) not in found:
            if not (budget.charge_triple() and budget.charge_program()):
                return
            found[p] = p
