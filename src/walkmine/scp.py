"""Colour programs: simulation, classification, predicates, and mining.

A colour program is a sequence of colour ids. Run from a vertex set, each
step moves to all out-neighbours and keeps those of the step's colour. The
backward search works from the target, maintaining triples (suffix, B, M)
whose meaning is: any start set sandwiched between B and M runs the suffix
into the target. The default miner keeps that invariant exactly, and gives
:func:`walkmine.mining.run_levels` two searches to race: the shared backward
search, which expands each (B, M) once for all the suffixes reaching it and
whose hooks name B's one colour class as the vertices a step keeping B also
keeps, split pools into colour classes and label a step with B's colour, and
a forward subset-construction search over endpoint sets; the first to finish
answers each length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .bitset import VertexSet, iter_bits
from .graph import DirectedGraph
from .mining import EXACT, FEASIBLE, MiningConfig, MiningReport, backward_search, run_levels
from .setcover import minimal_covers

INFEASIBLE = "infeasible"
COMPLETE_HALT = "complete_halt"

_FORWARD_STATS = ("sets_expanded",)


@dataclass(init=False, frozen=True, slots=True)
class Classification:
    """Outcome of running a program: kind, halting data, full trace.

    ``partial_halt_masks`` holds, for each step i of ``partial_halt_steps``
    in turn, the mask of the vertices of E_i that the step strands.
    """

    kind: str
    halt_step: Optional[int]
    partial_halt_steps: tuple[int, ...]
    trace: tuple[VertexSet, ...]
    partial_halt_masks: tuple[int, ...]

    # hand-written, as VertexSet's is: every verify call builds one
    def __init__(self, kind, halt_step=None, partial_halt_steps=(), trace=(), partial_halt_masks=()):
        _set_kind(self, kind)
        _set_halt_step(self, halt_step)
        _set_partial_halt_steps(self, partial_halt_steps)
        _set_trace(self, trace)
        _set_partial_halt_masks(self, partial_halt_masks)

    @property
    def succeeded(self) -> bool:
        return self.kind in (EXACT, FEASIBLE)

    @property
    def partial_halt_vertices(self) -> tuple[VertexSet, ...]:
        """The stranded vertices of each partial-halt step, as vertex sets."""
        return tuple(VertexSet(self.trace[0].size, mask) for mask in self.partial_halt_masks)


_set_kind = Classification.kind.__set__
_set_halt_step = Classification.halt_step.__set__
_set_partial_halt_steps = Classification.partial_halt_steps.__set__
_set_trace = Classification.trace.__set__
_set_partial_halt_masks = Classification.partial_halt_masks.__set__


def simulate_scp(g: DirectedGraph, source: VertexSet, program: tuple[int, ...]) -> list[VertexSet]:
    """Endpoint trace E0..En of a colour program run from ``source``."""
    g.check_universe(source)
    trace = [source]
    cur = source.mask
    for c in program:
        cur = g.out_image(cur) & g.color_mask(c)
        trace.append(VertexSet(g.n, cur))
    return trace


def classify_run(g: DirectedGraph, source: VertexSet, target: VertexSet, keeps: Iterable[int]) -> Classification:
    """Run a program from ``source`` and classify its endpoints against ``target``.

    The classification core shared by colour and criterion programs:
    ``keeps`` holds each step's mask of the vertices it keeps. Step i moves
    E_i to the kept part of its out-image, E_{i+1}, and halts partially when
    some vertex of E_i has no out-neighbour the step keeps; one
    :meth:`DirectedGraph.step` gives both.
    """
    g.check_universe(source, target)
    trace, partial, stranded = [source], [], []
    halt = None
    cur = source.mask
    for i, keep in enumerate(keeps):
        cur, stuck = g.step(cur, keep)
        if stuck:
            partial.append(i)
            stranded.append(stuck)
        if not cur and halt is None:
            halt = i + 1
        trace.append(VertexSet(g.n, cur))
    if halt is not None:
        kind = COMPLETE_HALT
    elif cur == target.mask:
        kind = EXACT
    elif cur & ~target.mask == 0:
        kind = FEASIBLE
    else:
        kind = INFEASIBLE
    return Classification(kind, halt, tuple(partial), tuple(trace), tuple(stranded))


def classify_scp(
    g: DirectedGraph, source: VertexSet, target: VertexSet, program: tuple[int, ...]
) -> Classification:
    return classify_run(g, source, target, map(g.color_mask, program))


# -- predicate algebra --------------------------------------------------------


def _image(g: DirectedGraph, A: VertexSet, B: VertexSet, c: int) -> int:
    """The c-coloured out-image of A, once A and B are checked to be sets of g."""
    g.check_universe(A, B)
    return g.out_image(A.mask) & g.color_mask(c)


def covers(g: DirectedGraph, A: VertexSet, B: VertexSet, c: int) -> bool:
    """Does the c-coloured out-image of A contain B?"""
    return B.mask & ~_image(g, A, B, c) == 0


def outspans(g: DirectedGraph, A: VertexSet, B: VertexSet, c: int) -> bool:
    """Does the c-coloured out-image of A leak outside B?"""
    return _image(g, A, B, c) & ~B.mask != 0


def injects(g: DirectedGraph, A: VertexSet, B: VertexSet, c: int) -> bool:
    """Is the c-coloured out-image of A nonempty and inside B?"""
    img = _image(g, A, B, c)
    return img != 0 and img & ~B.mask == 0


def spans(g: DirectedGraph, A: VertexSet, B: VertexSet, c: int) -> bool:
    """Is the c-coloured out-image of A exactly B (it covers B and does not outspan it)?"""
    return _image(g, A, B, c) == B.mask


def enumerate_pseudo_bases(
    g: DirectedGraph, pool: VertexSet, B: VertexSet, M: VertexSet, c: int
) -> Iterator[VertexSet]:
    """Minimal subsets of ``pool`` whose c-image covers B without leaving M.

    Members whose own c-image leaks outside M are excluded up front; the
    union of per-member images stays in M exactly when each one does. Yields
    in lexicographic order of sorted member ids.
    """
    g.check_universe(pool, B, M)
    if not B:
        raise ValueError("pseudo-bases are defined for nonempty B")
    cmask = g.color_mask(c)
    tight = pool.mask & ~g.in_image(cmask & ~M.mask) if B.mask & ~cmask == 0 else 0
    for ids in minimal_covers(B.mask, [(v, g.out_mask(v) & B.mask) for v in iter_bits(tight)]):
        yield VertexSet.from_ids(g.n, ids)


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
    return run_levels(g, source, target, config, "scp", mode, (), _scp_searches, _FORWARD_STATS)


def _scp_searches(g, S: int, T: int, mode):
    """The repaired colour searches, [forward, backward], in the order
    :func:`walkmine.mining.run_levels` races them."""

    def alike(B):
        c = _mono_color(g, B)
        return None if c is None else g.color_mask(c)

    def split(pool, safe):
        return [(pool & g.color_mask(d), safe & g.color_mask(d)) for d in g.colors_in(pool)]

    def label(B, M, safe):
        return _mono_color(g, B)

    return [
        _forward_search(g, S, T, mode),
        backward_search(g, "scp", T, mode, alike, split, label),
    ]


def _forward_search(g, S: int, T: int, mode):
    """Forward subset-construction search, one budget charge per step, one yield per set.

    A colour program is a word over the automaton v -c-> u (an edge v->u
    into a vertex of colour c), and the endpoint set of a run is a state of
    its powerset automaton. Depth by depth from {S}, each distinct set is
    expanded into its colour classes, keeping a class only if it meets K[r],
    the vertices with a walk of r steps into T, r the steps then left. At
    the last depth a class must equal T (exact mode), or be nonempty and
    inside T. The last step drops every move into a set with no path of
    moves to an accepted set, then lists the programs through the rest into
    ``found`` from one stack, depth-first and in lexicographic order; each
    listed program charges the budget too, so the caps bound the listing as
    they bound the expansion.
    """
    K = [T]  # K[r]: the vertices with a walk of r steps into T, extended as lengths need it

    def search(length, positions, budget, found, stats):
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
        for moves, after in reversed(list(zip(steps, steps[1:]))):  # drop moves into sets left with none
            for out in moves.values():
                out[:] = [move for move in out if after[move[1]]]
        stack = [(S, ())]  # (set, colours so far), pushed in reverse so it pops in order
        while stack:
            E, prefix = stack.pop()
            if len(prefix) < length:
                stack.extend((X, prefix + (c,)) for c, X in reversed(steps[len(prefix)][E]))
            elif prefix not in found:
                if not (budget.charge_triple() and budget.charge_program()):
                    return
                found[prefix] = None

    return search
