"""Minimal set covers over bitmask universes, enumerated one branch at a
time, and the charged cover listing every backward search draws its bases
from. Both run one depth-first search, which yields each cover as a mask of
its member ids."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .bitset import iter_bits


def _covers(target: int, cands: Sequence[tuple[int, int]]) -> Iterator[Optional[int]]:
    """:func:`iter_covers`' search over ``cands`` trimmed to ``target``,
    nonempty and sorted by id, yielding each cover as a mask of member ids."""
    # branches to take: (covered, twice, chosen masks, banned, ids), ``banned``
    # a mask over positions in ``cands`` and ``ids`` over the chosen ids
    stack = [(0, 0, (), 0, 0)]
    while stack:
        covered, twice, chosen, banned, ids = stack.pop()
        if covered == target:
            yield ids
            continue
        yield None
        # branch on the lowest uncovered element; each surviving cover picks
        # its smallest-id member covering it, so no cover appears twice
        low = (target & ~covered) & -(target & ~covered)
        children = []
        for pos, (vid, img) in enumerate(cands):
            if not img & low or banned >> pos & 1:
                continue
            # ``twice`` holds the elements covered at least twice; a chosen
            # member whose mask lies inside it has no private element left and
            # stays redundant in every superset, so the branch is cut (the new
            # member keeps ``low`` to itself)
            dup = twice | (covered & img)
            if dup == twice or all(m & ~dup for m in chosen):
                children.append((covered | img, dup, chosen + (img,), banned, ids | 1 << vid))
            banned |= 1 << pos  # later options skip this one: one OR per option
        stack.extend(reversed(children))  # pushed last first, taken in order


def iter_covers(target: int, candidates: Sequence[tuple[int, int]]) -> Iterator[Optional[tuple[int, ...]]]:
    """The minimal covers of ``target`` drawn from ``candidates``, one branch at a time.

    ``candidates`` pairs a distinct member id with the mask it covers. A
    cover is a set of members whose masks jointly contain the target; it is
    minimal when dropping any member breaks that. The search is depth-first
    over an explicit stack, not recursion. It yields each cover as a sorted
    id tuple, and None before each branch, where a caller may charge or
    stop; a branch is a partial cover, extended by one member per option.
    """
    cands = [(vid, img) for vid, img in sorted((vid, img & target) for vid, img in candidates) if img]
    for ids in _covers(target, cands):
        yield None if ids is None else tuple(iter_bits(ids))


def minimal_covers(target_mask: int, candidates: Sequence[tuple[int, int]]) -> list[tuple]:
    """The covers :func:`iter_covers` finds, sorted lexicographically (an empty
    target has the one cover ``()``)."""
    return sorted(cover for cover in iter_covers(target_mask, candidates) if cover is not None)


def cover_masks(g, B: int, pool: int, budget):
    """Minimal subsets of ``pool`` whose out-neighbourhoods cover B, under a budget.

    A generator for a search to drive with ``yield from``: it makes one
    ``budget.charge_triple()`` and one ``yield`` per branch of
    :func:`iter_covers`, and returns the covers as int masks over ``g``'s
    vertices, in lexicographic order of sorted member ids, or None once a
    charge is refused. The pool lists its images by id, so none is re-sorted.
    """
    drawn = []
    for ids in _covers(B, [(v, img) for v in iter_bits(pool) if (img := g.out_mask(v) & B)]):
        if ids is not None:
            drawn.append(ids)
        elif not budget.charge_triple():
            return None
        else:
            yield
    return sorted(drawn, key=lambda ids: tuple(iter_bits(ids)))
