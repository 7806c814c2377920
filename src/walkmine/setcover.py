"""Minimal set covers over bitmask universes, enumerated one branch at a
time, and the charged cover listing every backward search draws its bases
from."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .bitset import iter_bits, mask_of


def iter_covers(target: int, candidates: Sequence[tuple[int, int]]) -> Iterator[Optional[tuple[int, ...]]]:
    """The minimal covers of ``target`` drawn from ``candidates``, one branch at a time.

    ``candidates`` pairs a member id with the mask it covers. A cover is a
    set of members whose masks jointly contain the target; it is minimal when
    dropping any member breaks that. The search is depth-first over an
    explicit stack, not recursion. It yields each cover as a sorted id
    tuple, and None before each branch, where a caller may charge or stop;
    a branch is a partial cover, extended by one member per option.
    """
    cands = sorted((vid, img & target) for vid, img in candidates)
    cands = [(vid, img) for vid, img in cands if img]
    stack = [(0, 0, (), frozenset())]  # branches to take: (covered, twice, chosen, banned)
    while stack:
        covered, twice, chosen, banned = stack.pop()
        if covered == target:
            yield tuple(sorted(vid for vid, _ in chosen))
            continue
        yield None
        # branch on the lowest uncovered element; each surviving cover picks
        # its smallest-id member covering it, so no cover appears twice
        low = (target & ~covered) & -(target & ~covered)
        options = [(vid, img) for vid, img in cands if img & low and vid not in banned]
        for i, (vid, img) in reversed(list(enumerate(options))):  # pushed last first, taken in order
            # ``twice`` holds the elements covered at least twice; a chosen
            # member whose mask lies inside it has no private element left and
            # stays redundant in every superset, so the branch is cut (the new
            # member keeps ``low`` to itself)
            dup = twice | (covered & img)
            if dup == twice or all(m & ~dup for _, m in chosen):
                skipped = banned.union(v for v, _ in options[:i])
                stack.append((covered | img, dup, chosen + ((vid, img),), skipped))


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
    charge is refused.
    """
    drawn = []
    for cover in iter_covers(B, [(v, g.out_mask(v) & B) for v in iter_bits(pool)]):
        if cover is not None:
            drawn.append(cover)
        elif not budget.charge_triple():
            return None
        else:
            yield
    return [mask_of(ids) for ids in sorted(drawn)]
