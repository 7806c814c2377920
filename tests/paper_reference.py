"""The paper's set vocabulary, stated plainly for the tests to check against.

Covers, spans and pseudo-bases of colour steps, iterated neighbourhoods and
reachability levels, selection by colour or criterion, the consistency of a
criterion step's two sides, and a criterion read off one feature vector.
The miners reach the same answers through raw masks
(:meth:`walkmine.graph.DirectedGraph.out_image`,
:func:`walkmine.setcover.cover_masks`,
:func:`walkmine.criterion.criterion_mask`); these definitions state them on
vertex sets. The package does not ship them.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from walkmine.bitset import VertexSet, iter_bits
from walkmine.criterion import _ORDER, AllOf, AnyOf, Atom, Criterion, criterion_mask
from walkmine.graph import DirectedGraph
from walkmine.setcover import minimal_covers

# -- colour-step predicates ----------------------------------------------------


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


# -- set-level neighbourhoods --------------------------------------------------


def _walk(g: DirectedGraph, vs: VertexSet, k: int, image) -> VertexSet:
    """The set ``k`` applications of ``image`` take ``vs`` to."""
    if k < 0:
        raise ValueError("step count must be non-negative")
    g.check_universe(vs)
    mask = vs.mask
    for _ in range(k):
        if not mask:
            break
        mask = image(mask)
    return VertexSet(g.n, mask)


def out_neighbors(g: DirectedGraph, vs: VertexSet) -> VertexSet:
    """Vertices reachable from ``vs`` by exactly one edge."""
    return _walk(g, vs, 1, g.out_image)


def in_neighbors(g: DirectedGraph, vs: VertexSet) -> VertexSet:
    """Vertices with at least one edge into ``vs``."""
    return _walk(g, vs, 1, g.in_image)


def iterated_out(g: DirectedGraph, vs: VertexSet, k: int) -> VertexSet:
    """Vertices reachable from ``vs`` by walks of exactly ``k`` edges."""
    return _walk(g, vs, k, g.out_image)


def iterated_in(g: DirectedGraph, vs: VertexSet, k: int) -> VertexSet:
    return _walk(g, vs, k, g.in_image)


def select_by_color(g: DirectedGraph, vs: VertexSet, color: str) -> VertexSet:
    """Subset of ``vs`` whose colour is ``color`` (empty for unknown colours)."""
    g.check_universe(vs)
    return VertexSet(g.n, vs.mask & g.color_mask(g.color_id(color)))


def reachability_levels(g: DirectedGraph, source: VertexSet, target: VertexSet, max_len: int) -> list[int]:
    """Walk lengths ``0..max_len`` at which some target vertex is reached.

    Length ``l`` is reported when the set of vertices exactly ``l`` steps
    from the source meets the target set.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    g.check_universe(source, target)
    levels = []
    mask = source.mask
    for level in range(max_len + 1):
        if mask & target.mask:
            levels.append(level)
        if level < max_len:
            mask = g.out_image(mask)
            if not mask:
                break
    return levels


# -- criterion steps -----------------------------------------------------------


def satisfies(vector: Sequence, crit: Criterion) -> bool:
    """Does a feature vector satisfy a criterion?"""
    if isinstance(crit, Atom):
        if not 0 <= crit.dim < len(vector):
            raise ValueError(f"criterion references dimension {crit.dim} outside the schema")
        x = vector[crit.dim]
        if crit.op == "=":
            return x == crit.value
        return x is not None and _ORDER[crit.op](x, crit.value)
    if isinstance(crit, AllOf):
        return all(satisfies(vector, item) for item in crit.items)
    if isinstance(crit, AnyOf):
        return any(satisfies(vector, item) for item in crit.items)
    raise TypeError(f"not a criterion: {crit!r}")


def select_by_criterion(g: DirectedGraph, A: VertexSet, crit: Criterion) -> VertexSet:
    """Subset of ``A`` whose feature vectors satisfy the criterion."""
    g.check_universe(A)
    return VertexSet(g.n, A.mask & criterion_mask(g, crit))


def consistent(g: DirectedGraph, A: VertexSet, b_side: VertexSet, e_side: VertexSet) -> bool:
    """No feature-vector collision between the two out-neighbour groups of A."""
    g.check_universe(A, b_side, e_side)
    if b_side.mask & e_side.mask:
        raise ValueError("the two sides must be disjoint")
    out = g.out_image(A.mask)
    if (b_side.mask | e_side.mask) & ~out:
        raise ValueError("both sides must be out-neighbours of A")
    return g.twins(b_side.mask) & e_side.mask == 0
