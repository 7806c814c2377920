"""Minimal set covers over bitmask universes, enumerated one branch at a
time, and the pseudo-bases the colour miners draw from them."""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from .bitset import iter_bits, mask_of

Stop = Optional[Callable[[], bool]]  # asked during an enumeration; True ends it early


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


def minimal_covers(target_mask: int, candidates: Sequence[tuple[int, int]], stop: Stop = None) -> list[tuple]:
    """The covers :func:`iter_covers` finds, sorted lexicographically (an empty
    target has the one cover ``()``). ``stop`` is asked before each branch;
    once it returns True, only the covers found so far are returned."""
    results = []
    for cover in iter_covers(target_mask, candidates):
        if cover is not None:
            results.append(cover)
        elif stop is not None and stop():
            break
    return sorted(results)


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
    if B & ~cmask:
        return []
    return cover_masks(g, B, pool & ~g.in_image(cmask & ~M), stop)
