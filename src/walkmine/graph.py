"""Feature-labelled directed graphs and the mask images the miners walk with.

Vertices carry a fixed-width feature vector described by a shared schema.
One categorical dimension (by default the one named ``color``) is designated
as the walk colour used by colour programs. Vertex sets are bitmasks, so an
image (:meth:`DirectedGraph.out_image`, :meth:`DirectedGraph.in_image`) is a
bulk bit operation. Graphs with many vertices keep their out-edges and
in-edges as numpy arrays in compressed sparse row (CSR) form instead, and an
image there costs O(n/8) for the mask plus the edges of the active
vertices' rows.

:meth:`DirectedGraph.step` is one step of a program run: the kept out-image
of a set and the set's vertices with no out-neighbour kept. On int masks one
loop over the set gives both. On edge arrays the out-image is taken first,
and the in-image of the kept set second, only when the step both keeps and
drops part of the out-image: otherwise the stranded set is the whole set or
its sinks. (A fused numpy kernel measured slower than the two images.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from operator import index
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bitset import VertexSet, iter_bits, mask_of

CATEGORICAL = "categorical"
ORDERED = "ordered"

# Above this vertex count, adjacency is kept as numpy CSR edge arrays instead
# of per-vertex masks: an image costs O(n/8 + edges leaving the active
# vertices) numpy work, not a python loop per vertex.
_DENSE_LIMIT = 4096


class Dimension(NamedTuple):
    name: str
    kind: str


@dataclass(slots=True)
class FeatureSchema:
    """Ordered list of named feature dimensions shared by all vertices."""

    dims: Sequence[Dimension]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dims = tuple(self.dims)
        seen = set()
        for d in self.dims:
            if d.kind not in (CATEGORICAL, ORDERED):
                raise ValueError(f"unknown dimension kind {d.kind!r}")
            if d.name in seen:
                raise ValueError(f"duplicate dimension name {d.name!r}")
            seen.add(d.name)
        self._index = {d.name: i for i, d in enumerate(self.dims)}

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"no dimension named {name!r}")
        return self._index[name]

    def has(self, name: str) -> bool:
        return name in self._index

    def kind_of(self, dim: int) -> str:
        return self.dims[dim].kind

    def color_index(self, name: str) -> int:
        """Index of the dimension ``name``, which must be categorical to colour walks."""
        if not self.has(name):
            raise ValueError(f"colour dimension {name!r} is not in the schema")
        dim = self._index[name]
        if self.kind_of(dim) != CATEGORICAL:
            raise ValueError(f"colour dimension {name!r} must be categorical")
        return dim


def _bad_value(kind: str, value) -> Optional[str]:
    """Why ``value`` does not fit a dimension of ``kind``, or None if it fits
    (a missing value, None, always fits)."""
    if value is None:
        return None
    if kind == ORDERED:
        # bool is an int subclass; reject it so orderings stay numeric
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"ordered dimension needs a number, got {value!r}"
        if isinstance(value, float) and not math.isfinite(value):
            return f"non-finite number {value!r}"
    elif not isinstance(value, str):
        return f"categorical dimension needs a string, got {value!r}"
    return None


def _feature_problem(schema: FeatureSchema, feats) -> Optional[str]:
    """Why ``feats``, a ``features`` object of dimension names to values, does
    not fit ``schema``, or None if it fits."""
    if not isinstance(feats, dict):
        return "'features' must be an object"
    for name, value in feats.items():
        if not schema.has(name):
            return f"unknown feature {name!r}"
        if problem := _bad_value(schema.kind_of(schema.index(name)), value):
            return f"feature {name!r}: {problem}"
    return None


class _VertexTable:
    """Named vertices whose feature rows are checked against a schema: the
    vertex facts :class:`DirectedGraph` and :class:`MultiGraph` share."""

    def __init__(self, schema: FeatureSchema, names: Sequence[str], rows: Sequence[Sequence], color_dim: str):
        n = len(names)
        if len(rows) != n:
            raise ValueError("one feature row per vertex required")
        self.names = tuple(names)
        self._ids = dict(zip(self.names, range(n)))
        if len(self._ids) != n:
            raise ValueError("vertex names must be unique")
        self.schema = schema
        self.color_dim = color_dim
        self.rows = tuple(map(tuple, rows))
        width = len(schema)
        for v, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"vertex {names[v]!r}: row width differs from schema")
            for d, value in zip(schema.dims, row):
                if problem := _bad_value(d.kind, value):
                    raise ValueError(f"vertex {names[v]!r}, dimension {d.name!r}: {problem}")
        self.n = n

    def vertex_id(self, name: str) -> int:
        if name not in self._ids:
            raise KeyError(f"no vertex named {name!r}")
        return self._ids[name]

    def has_vertex(self, name: str) -> bool:
        return name in self._ids


@dataclass(frozen=True, slots=True)  # slots: a field read is one specialised load
class _Classes:
    keys: tuple  # the class keys in first-occurrence order; a class's id is its index
    ids: dict  # class id of each key
    of: tuple[int, ...]  # class id of each vertex, -1 where its key is None
    masks: tuple[int, ...]  # mask of each class


def _classes(keys: Sequence) -> _Classes:
    """The vertices grouped by key, ``keys[v]`` being vertex v's; a None key joins no class."""
    ids: dict = {}
    of = [-1 if key is None else ids.setdefault(key, len(ids)) for key in keys]
    # each class's bits set in a byte buffer, read as one int: linear in n,
    # where OR-ing 1 << v into a growing int is quadratic; walking from the
    # end, a buffer is made at its class's last member, so it is no larger
    # than the mask it becomes
    bufs: list = [None] * len(ids)
    for v in reversed(range(len(of))):
        if (c := of[v]) >= 0:
            if bufs[c] is None:
                bufs[c] = bytearray((v >> 3) + 1)
            bufs[c][v >> 3] |= 1 << (v & 7)
    return _Classes(tuple(ids), ids, tuple(of), tuple(int.from_bytes(buf, "little") for buf in bufs))


class DirectedGraph(_VertexTable):
    """Simple directed graph whose vertices carry feature vectors.

    ``rows[v]`` is the feature tuple of vertex ``v`` aligned with ``schema``;
    ``None`` entries mean the feature is missing. The colour of a vertex is
    its value in the ``color_dim`` dimension; vertices whose colour is
    missing belong to no colour class.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        names: Sequence[str],
        rows: Sequence[Sequence],
        edges: Iterable[Sequence[int]],
        color_dim: str = "color",
    ):
        super().__init__(schema, names, rows, color_dim)
        n = self.n
        self._vectorised = n >= _DENSE_LIMIT
        # both layouts read an edge as any two-item sequence of ids through
        # operator.index: numpy integers are ids, floats and strings are not
        if self._vectorised:
            try:
                ids = map(index, chain.from_iterable((s, d) for s, d in edges))
                pairs = np.fromiter(ids, np.int64).reshape(-1, 2)
            except OverflowError as e:  # an id beyond int64 is no vertex either
                raise ValueError(f"edge references unknown vertex: {e}") from None
            bad = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)].tolist()
        else:
            # one pass ORs each edge into both masks; a repeated edge sets no new bit
            out = [0] * n
            inc = [0] * n
            bad = []
            for s, d in edges:
                if not (type(s) is type(d) is int):
                    s, d = index(s), index(d)
                if 0 <= s < n and 0 <= d < n:
                    out[s] |= 1 << d
                    inc[d] |= 1 << s
                else:
                    bad.append((s, d))
        if bad:
            s, d = min(map(tuple, bad))
            raise ValueError(f"edge ({s}, {d}) references unknown vertex")
        if self._vectorised:
            # the sorted, duplicate-free (source, target) pairs as keys s * n + d
            keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
            keys = keys[np.diff(keys, prepend=-1) != 0]
            # v's out-edges are _dst[_ptr[v]:_ptr[v + 1]], its in-edges _in_src[_in_ptr[v]:_in_ptr[v + 1]]
            src, self._dst = np.divmod(keys, n)
            in_dst, self._in_src = np.divmod(np.sort(self._dst * n + src), n)
            bounds = np.arange(n + 1)
            self._ptr = np.searchsorted(src, bounds)
            self._in_ptr = np.searchsorted(in_dst, bounds)
            # the vertices with no out-edge
            sinks = np.packbits(np.diff(self._ptr) == 0, bitorder="little")
            self._sinks = int.from_bytes(sinks.tobytes(), "little")
            self.num_edges = len(keys)
            self._out_masks = None
            self._in_masks = None
        else:
            self.num_edges = sum(m.bit_count() for m in out)
            self._out_masks = out
            self._in_masks = inc
        # the colour and the feature-vector classes, grouped on first use;
        # the rows grouped by spelling, by criterion.criterion_memo
        self._colors: Optional[_Classes] = None
        self._vectors: Optional[_Classes] = None
        self._spellings: Optional[_Classes] = None
        # criterion -> mask of the vertices satisfying it, filled by
        # criterion.criterion_mask
        self._criterion_masks: dict = {}
        # criterion -> its criterion_key, filled by TosetProgram.key
        self._criterion_keys: dict = {}

    # -- identity ---------------------------------------------------------

    def twins(self, mask: int) -> int:
        """The vertices sharing a feature vector with some vertex of ``mask``:
        one hop per vector class."""
        if self._vectors is None:
            self._vectors = _classes(self.rows)
        of, masks = self._vectors.of, self._vectors.masks
        out = 0
        while mask:
            out |= masks[of[(mask & -mask).bit_length() - 1]]
            mask &= ~out
        return out

    def check_universe(self, *sets: VertexSet):
        """Raise ValueError unless each of ``sets`` is a set of this graph's vertices."""
        for vs in sets:  # a loop, not any(): simulate and classify pay this per call
            if vs.size != self.n:
                raise ValueError("vertex sets must live in the graph's universe")

    def edges(self) -> tuple[tuple[int, int], ...]:
        """The (source, target) pairs, in ascending order."""
        if self._vectorised:
            src = np.repeat(np.arange(self.n), np.diff(self._ptr))
            return tuple(zip(src.tolist(), self._dst.tolist()))
        return tuple((s, d) for s, mask in enumerate(self._out_masks) for d in iter_bits(mask))

    def vertex_set(self, ids: Iterable[int] = ()) -> VertexSet:
        return VertexSet.from_ids(self.n, ids)

    def full_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    # -- colours ----------------------------------------------------------

    def _intern_colors(self) -> _Classes:
        dim = self.schema.color_index(self.color_dim)
        self._colors = _classes([row[dim] for row in self.rows])
        return self._colors

    @property
    def color_names(self) -> tuple[str, ...]:
        return (self._colors or self._intern_colors()).keys

    @property
    def num_colors(self) -> int:
        return len(self.color_names)

    def color_id(self, name: str) -> int:
        """Interned id of a colour name, or -1 if no vertex has it."""
        return (self._colors or self._intern_colors()).ids.get(name, -1)

    def color_of(self, v: int) -> int:
        return (self._colors or self._intern_colors()).of[v]

    def color_mask(self, cid: int) -> int:
        masks = (self._colors or self._intern_colors()).masks
        return masks[cid] if 0 <= cid < len(masks) else 0

    def colors_in(self, mask: int) -> list[int]:
        """Ids of the colours held by some vertex of ``mask``, ascending."""
        masks = (self._colors or self._intern_colors()).masks
        return [c for c, cmask in enumerate(masks) if mask & cmask]

    # -- raw mask images ----------------------------------------------------

    def _np_image(self, mask: int, ptr: np.ndarray, nbr: np.ndarray) -> int:
        """Union of the CSR rows ``nbr[ptr[v]:ptr[v + 1]]`` of the vertices in ``mask``."""
        if not mask:  # skips a fixed numpy cost, paid on every image after a halt
            return 0
        nb = (self.n + 7) // 8  # whole bytes: the bits past n are clear in mask and in the image
        bits = np.unpackbits(np.frombuffer(mask.to_bytes(nb, "little"), dtype=np.uint8), bitorder="little")
        active = bits.view(bool).nonzero()[0]
        ends = ptr[1:].take(active)
        lengths = ends - ptr.take(active)
        # position k of the gathered rows, in row r, reads nbr[k + ends[r] - total[r]],
        # total[r] being the summed lengths of rows 0..r
        ends -= np.add.accumulate(lengths)
        idx = np.repeat(ends, lengths)
        idx += np.arange(idx.size)
        hit = np.zeros(8 * nb, dtype=bool)
        hit[nbr.take(idx)] = True
        return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")

    def out_image(self, mask: int) -> int:
        """Union of out-neighbourhoods of the vertices in ``mask``."""
        if self._vectorised:
            return self._np_image(mask, self._ptr, self._dst)
        return _union(self._out_masks, mask)

    def in_image(self, mask: int) -> int:
        if self._vectorised:
            return self._np_image(mask, self._in_ptr, self._in_src)
        return _union(self._in_masks, mask)

    def step(self, mask: int, keep: int) -> tuple[int, int]:
        """(kept, stranded): the out-image of ``mask`` inside ``keep``, and the
        vertices of ``mask`` with no out-neighbour in ``keep``, which is
        ``mask & ~in_image(kept)``. On edge arrays that in-image is taken
        only when the step both keeps and drops part of the out-image: if it
        keeps none, all of ``mask`` is stranded; if it drops none, only
        ``mask``'s sinks are."""
        if self._vectorised:
            if not mask:
                return 0, 0
            image = self._np_image(mask, self._ptr, self._dst)
            if not image & keep:
                return 0, mask
            if not image & ~keep:
                return image, mask & self._sinks
            kept = image & keep
            return kept, mask & ~self._np_image(kept, self._in_ptr, self._in_src)
        kept = stranded = 0
        out = self._out_masks
        while mask:
            low = mask & -mask
            if hit := out[low.bit_length() - 1] & keep:
                kept |= hit
            else:
                stranded |= low
            mask ^= low
        return kept, stranded

    def out_mask(self, v: int) -> int:
        if self._vectorised:
            return mask_of(self._dst[self._ptr[v] : self._ptr[v + 1]].tolist())
        return self._out_masks[v]


def _union(masks: list[int], mask: int) -> int:
    """Union of ``masks[v]`` over the vertices ``v`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= masks[low.bit_length() - 1]
        mask ^= low
    return out


class MultiGraph(_VertexTable):
    """Directed multigraph whose edges may carry their own feature vectors.

    Kept only as an interchange form: analysis runs on the simple graph
    produced by :func:`convert_multigraph`. Rows are checked as
    :class:`DirectedGraph` checks them, and edge features by the same rule.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        names: Sequence[str],
        rows: Sequence[Sequence],
        edges: Iterable[tuple[int, int, Optional[dict]]],
        color_dim: str = "color",
    ):
        super().__init__(schema, names, rows, color_dim)
        self.edges = tuple((index(s), index(d), dict(f) if f else {}) for s, d, f in edges)
        for s, d, feats in self.edges:
            if not (0 <= s < self.n and 0 <= d < self.n):
                raise ValueError(f"edge ({s}, {d}) references unknown vertex")
            if problem := _feature_problem(schema, feats):
                raise ValueError(f"edge ({s}, {d}): {problem}")


def convert_multigraph(mg: MultiGraph) -> DirectedGraph:
    """Subdivide every edge of a multigraph into a fresh midpoint vertex.

    The midpoint carries the edge's features (missing where the edge gave
    none) and is named ``"src->dst"``, with ``#2``, ``#3``, ... suffixes when
    parallel edges or name clashes require it. Original vertices keep their
    ids, so source/target sets stated on the multigraph stay valid.
    """
    names = dict.fromkeys(mg.names)  # an ordered set of the names taken
    rows = list(mg.rows)
    simple_edges: list[tuple[int, int]] = []
    for s, d, feats in mg.edges:
        base = f"{mg.names[s]}->{mg.names[d]}"
        name = base
        k = 1
        while name in names:
            k += 1
            name = f"{base}#{k}"
        mid = len(names)
        names[name] = None
        rows.append(tuple(feats.get(dim.name) for dim in mg.schema))
        simple_edges.append((s, mid))
        simple_edges.append((mid, d))
    return DirectedGraph(mg.schema, list(names), rows, simple_edges, color_dim=mg.color_dim)
