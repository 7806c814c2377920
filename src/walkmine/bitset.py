"""Dense bit-indexed vertex sets over a fixed universe {0, ..., size-1}."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    out = 0
    for i in ids:
        out |= 1 << i
    return out


@dataclass(init=False, frozen=True, slots=True)
class VertexSet:
    """Immutable set of vertex ids backed by an integer bitmask.

    All binary operations require both operands to share the same universe
    size. Instances are hashable and usable as dict keys.
    """

    size: int
    mask: int

    # hand-written: every simulate and verify step builds one, and the slot
    # descriptors bound below the class skip object.__setattr__'s by-name lookup
    def __init__(self, size: int, mask: int = 0):
        if type(size) is not int or type(mask) is not int:  # a numpy int would shift as a fixed-width int
            size, mask = operator.index(size), operator.index(mask)
        if size < 0:
            raise ValueError("universe size must be non-negative")
        if mask < 0 or mask >> size:
            raise ValueError("mask has bits outside the universe")
        _set_size(self, size)
        _set_mask(self, mask)

    @classmethod
    def from_ids(cls, size: int, ids: Iterable[int]) -> "VertexSet":
        ids = list(map(operator.index, ids))  # a numpy id would shift as a fixed-width int
        for i in ids:
            if not 0 <= i < size:
                raise ValueError(f"vertex id {i} outside universe of size {size}")
        return cls(size, mask_of(ids))

    @classmethod
    def single(cls, size: int, i: int) -> "VertexSet":
        return cls.from_ids(size, (i,))

    @classmethod
    def full(cls, size: int) -> "VertexSet":
        size = operator.index(size)  # a numpy size would wrap the shift
        return cls(size, (1 << size) - 1)

    def _check(self, other: "VertexSet") -> None:
        if not isinstance(other, VertexSet):
            raise TypeError(f"expected VertexSet, got {type(other).__name__}")
        if other.size != self.size:
            raise ValueError("universe sizes differ")

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, i: int) -> bool:
        i = operator.index(i)
        return 0 <= i < self.size and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def ids(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.size, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.size, self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.size, self.mask & ~other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __le__ = issubset

    def __lt__(self, other: "VertexSet") -> bool:
        return self.issubset(other) and self.mask != other.mask

    def __ge__(self, other: "VertexSet") -> bool:
        self._check(other)
        return other.mask & ~self.mask == 0

    def __gt__(self, other: "VertexSet") -> bool:
        return self.__ge__(other) and self.mask != other.mask

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & other.mask == 0

    def __repr__(self) -> str:
        return f"VertexSet({{{', '.join(map(str, self))}}}, size={self.size})"


_set_size = VertexSet.size.__set__
_set_mask = VertexSet.mask.__set__
