"""Enumeration of minimal set covers over bitmask universes, and the
pseudo-bases the colour miners draw from them."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .bitset import iter_bits, mask_of

Stop = Optional[Callable[[], bool]]  # asked during an enumeration; True ends it early


def minimal_covers(
    target_mask: int, candidates: Sequence[tuple[int, int]], stop: Stop = None
) -> list[tuple[int, ...]]:
    """All minimal covers of ``target_mask`` drawn from ``candidates``.

    ``candidates`` pairs a member id with the mask it covers. A cover is a
    set of members whose masks jointly contain the target; it is minimal when
    dropping any member breaks that. Returns each cover as a sorted id tuple,
    with the whole list sorted lexicographically. An empty target has exactly
    the empty cover. ``stop`` is asked before each branch; once it returns
    True the enumeration ends, and only the covers found so far are returned.
    """
    if target_mask == 0:
        return [()]
    cands = sorted((vid, img & target_mask) for vid, img in candidates)
    cands = [(vid, img) for vid, img in cands if img]
    results: list[tuple[int, ...]] = []

    def search(covered: int, twice: int, chosen: list, banned: frozenset):
        if stop is not None and stop():
            return
        if covered == target_mask:
            results.append(tuple(sorted(vid for vid, _ in chosen)))
            return
        # branch on the lowest uncovered element; each surviving cover picks
        # its smallest-id member covering it, so no cover appears twice
        low = (target_mask & ~covered) & -(target_mask & ~covered)
        options = [(vid, img) for vid, img in cands if img & low and vid not in banned]
        skipped: set[int] = set()
        for vid, img in options:
            # ``twice`` holds the elements covered at least twice; a chosen
            # member whose mask lies inside it has no private element left and
            # stays redundant in every superset, so the branch is cut (the new
            # member keeps ``low`` to itself)
            dup = twice | (covered & img)
            if dup == twice or all(m & ~dup for _, m in chosen):
                search(covered | img, dup, chosen + [(vid, img)], banned | frozenset(skipped))
            skipped.add(vid)

    search(0, 0, [], frozenset())
    results.sort()
    return results


def cover_masks(g, B: int, pool: int, stop: Stop = None) -> list[int]:
    """Minimal subsets of ``pool`` whose out-neighbourhoods cover B, as int
    masks over ``g``'s vertices, in lexicographic order of sorted member ids;
    ``stop`` cuts the enumeration short as in :func:`minimal_covers`."""
    candidates = [(v, g.out_mask(v) & B) for v in iter_bits(pool)]
    return [mask_of(ids) for ids in minimal_covers(B, candidates, stop)]


def pseudo_bases(g, pool: int, B: int, M: int, c: int, stop: Stop = None) -> list[int]:
    """Minimal subsets of ``pool`` whose c-image covers B without leaving M.

    Members whose own c-image leaks outside M are excluded up front; the
    union of per-member images stays in M exactly when each one does.
    ``stop`` is passed on to :func:`cover_masks`.
    """
    cmask = g.color_mask(c)
    inside = mask_of(v for v in iter_bits(pool) if g.out_mask(v) & cmask & ~M == 0)
    return [] if B & ~cmask else cover_masks(g, B, inside, stop)
