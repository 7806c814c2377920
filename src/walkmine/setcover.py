"""Enumeration of minimal set covers over bitmask universes, and the
pseudo-bases the colour miners draw from them."""

from __future__ import annotations

from typing import Sequence

from .bitset import iter_bits, mask_of


def minimal_covers(target_mask: int, candidates: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """All minimal covers of ``target_mask`` drawn from ``candidates``.

    ``candidates`` pairs a member id with the mask it covers. A cover is a
    set of members whose masks jointly contain the target; it is minimal when
    dropping any member breaks that. Returns each cover as a sorted id tuple,
    with the whole list sorted lexicographically. An empty target has exactly
    the empty cover.
    """
    if target_mask == 0:
        return [()]
    cands = sorted((vid, img & target_mask) for vid, img in candidates)
    cands = [(vid, img) for vid, img in cands if img]
    results: list[tuple[int, ...]] = []

    def search(covered: int, twice: int, chosen: list, banned: frozenset):
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


def pseudo_bases(g, pool: int, B: int, M: int, c: int) -> list[int]:
    """Minimal subsets of ``pool`` whose c-image covers B without leaving M.

    All sets are int masks over the vertices of graph ``g``. Members whose own
    c-image leaks outside M are excluded up front; the union of per-member
    images stays in M exactly when each one does. Returned in lexicographic
    order of sorted member ids.
    """
    cmask = g.color_mask(c)
    candidates = []
    for v in iter_bits(pool):
        img = g.out_mask(v) & cmask
        if img & ~M == 0:
            candidates.append((v, img & B))
    return [mask_of(ids) for ids in minimal_covers(B, candidates)]
