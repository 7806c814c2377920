"""Feature-labelled directed graphs and the neighbourhood algebra on them.

Vertices carry a fixed-width feature vector described by a shared schema.
One categorical dimension (by default the one named ``color``) is designated
as the walk colour used by colour programs. Vertex sets are bitmasks, so all
set-level neighbourhood operators are bulk bit operations. Graphs with many
vertices keep their out-edges and in-edges as numpy arrays in compressed
sparse row (CSR) form instead, and an image there costs O(n/8) for the mask
plus the edges of the active vertices' rows.
"""

from __future__ import annotations

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


class FeatureSchema:
    """Ordered list of named feature dimensions shared by all vertices."""

    __slots__ = ("dims", "_index")

    def __init__(self, dims: Sequence[Dimension]):
        seen = set()
        for d in dims:
            if d.kind not in (CATEGORICAL, ORDERED):
                raise ValueError(f"unknown dimension kind {d.kind!r}")
            if d.name in seen:
                raise ValueError(f"duplicate dimension name {d.name!r}")
            seen.add(d.name)
        self.dims = tuple(dims)
        self._index = {d.name: i for i, d in enumerate(self.dims)}

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureSchema):
            return NotImplemented
        return self.dims == other.dims

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


def _check_value(kind: str, value, where: str):
    if value is None:
        return
    if kind == ORDERED:
        # bool is an int subclass; reject it so orderings stay numeric
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{where}: ordered dimension needs a number, got {value!r}")
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            raise ValueError(f"{where}: non-finite number {value!r}")
    else:
        if not isinstance(value, str):
            raise ValueError(f"{where}: categorical dimension needs a string, got {value!r}")


class DirectedGraph:
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
        edges: Iterable[tuple[int, int]],
        color_dim: str = "color",
    ):
        n = len(names)
        if len(rows) != n:
            raise ValueError("one feature row per vertex required")
        if len(set(names)) != n:
            raise ValueError("vertex names must be unique")
        self.schema = schema
        self.names = tuple(names)
        self.color_dim = color_dim
        fixed = []
        for v, row in enumerate(rows):
            row = tuple(row)
            if len(row) != len(schema):
                raise ValueError(f"vertex {names[v]!r}: row width differs from schema")
            for d, value in zip(schema.dims, row):
                _check_value(d.kind, value, f"vertex {names[v]!r}, dimension {d.name!r}")
            fixed.append(row)
        self.rows = tuple(fixed)
        self.n = n
        self._ids = {name: v for v, name in enumerate(self.names)}

        uniq = sorted(set(edges))
        for s, d in uniq:
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"edge ({s}, {d}) references unknown vertex")
        self.num_edges = len(uniq)
        self._vectorised = n >= _DENSE_LIMIT
        if self._vectorised:
            src = np.fromiter((s for s, _ in uniq), dtype=np.int64, count=len(uniq))
            dst = np.fromiter((d for _, d in uniq), dtype=np.int64, count=len(uniq))
            # uniq is sorted by source, so v's out-edges are _dst[_ptr[v]:_ptr[v + 1]]
            # and its in-edges _in_src[_in_ptr[v]:_in_ptr[v + 1]]
            bounds = np.arange(n + 1)
            self._ptr = np.searchsorted(src, bounds)
            self._dst = dst
            by_dst = np.argsort(dst, kind="stable")
            self._in_ptr = np.searchsorted(dst[by_dst], bounds)
            self._in_src = src[by_dst]
            self._out_masks = None
            self._in_masks = None
        else:
            out = [0] * n
            inc = [0] * n
            for s, d in uniq:
                out[s] |= 1 << d
                inc[d] |= 1 << s
            self._out_masks = out
            self._in_masks = inc
        self._edge_list = uniq
        self._color_names: Optional[tuple[str, ...]] = None
        self._color_ids: dict[str, int] = {}
        self._vcolor: Optional[tuple[int, ...]] = None
        self._color_masks: Optional[list[int]] = None
        # criterion atom -> mask of the vertices satisfying it, filled by
        # criterion.criterion_mask
        self._atom_masks: dict = {}
        # criterion -> its criterion_key, filled by TosetProgram.key
        self._criterion_keys: dict = {}

    # -- identity ---------------------------------------------------------

    def vertex_id(self, name: str) -> int:
        if name not in self._ids:
            raise KeyError(f"no vertex named {name!r}")
        return self._ids[name]

    def has_vertex(self, name: str) -> bool:
        return name in self._ids

    def vector(self, v: int) -> tuple:
        return self.rows[v]

    def vectors(self, mask: int) -> list[tuple]:
        return [self.rows[v] for v in iter_bits(mask)]

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(self._edge_list)

    def vertex_set(self, ids: Iterable[int] = ()) -> VertexSet:
        return VertexSet.from_ids(self.n, ids)

    def full_set(self) -> VertexSet:
        return VertexSet.full(self.n)

    # -- colours ----------------------------------------------------------

    def _intern_colors(self):
        dim = self.schema.color_index(self.color_dim)
        ids: dict[str, int] = {}
        vcolor = []
        for row in self.rows:
            value = row[dim]
            if value is None:
                vcolor.append(-1)
            else:
                if value not in ids:
                    ids[value] = len(ids)
                vcolor.append(ids[value])
        masks = [0] * len(ids)
        for v, c in enumerate(vcolor):
            if c >= 0:
                masks[c] |= 1 << v
        self._color_ids = ids
        self._color_names = tuple(ids)
        self._vcolor = tuple(vcolor)
        self._color_masks = masks

    @property
    def color_names(self) -> tuple[str, ...]:
        if self._color_names is None:
            self._intern_colors()
        return self._color_names

    @property
    def num_colors(self) -> int:
        return len(self.color_names)

    def color_id(self, name: str) -> int:
        """Interned id of a colour name, or -1 if no vertex has it."""
        if self._color_names is None:
            self._intern_colors()
        return self._color_ids.get(name, -1)

    def color_of(self, v: int) -> int:
        if self._vcolor is None:
            self._intern_colors()
        return self._vcolor[v]

    def color_mask(self, cid: int) -> int:
        if self._color_masks is None:
            self._intern_colors()
        if cid < 0 or cid >= len(self._color_masks):
            return 0
        return self._color_masks[cid]

    def color_class(self, cid: int) -> VertexSet:
        return VertexSet(self.n, self.color_mask(cid))

    def colors_in(self, mask: int) -> list[int]:
        """Ids of the colours held by some vertex of ``mask``, ascending."""
        return [c for c in range(self.num_colors) if mask & self.color_mask(c)]

    # -- raw mask images ----------------------------------------------------

    def _np_image(self, mask: int, ptr: np.ndarray, nbr: np.ndarray) -> int:
        """Union of the CSR rows ``nbr[ptr[v]:ptr[v + 1]]`` of the vertices in ``mask``."""
        n = self.n
        bits = np.unpackbits(
            np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8),
            count=n,
            bitorder="little",
        )
        active = bits.view(bool).nonzero()[0]
        starts = ptr[active]
        lengths = ptr[active + 1] - starts
        # position k of the gathered rows reads nbr[starts[row] + k - offset[row]]
        shift = starts - (np.cumsum(lengths) - lengths)
        picked = nbr[np.repeat(shift, lengths) + np.arange(int(lengths.sum()))]
        hit = np.zeros(n, dtype=bool)
        hit[picked] = True
        return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")

    def out_image(self, mask: int) -> int:
        """Union of out-neighbourhoods of the vertices in ``mask``."""
        if self._vectorised:
            return self._np_image(mask, self._ptr, self._dst)
        out = 0
        masks = self._out_masks
        for v in iter_bits(mask):
            out |= masks[v]
        return out

    def in_image(self, mask: int) -> int:
        if self._vectorised:
            return self._np_image(mask, self._in_ptr, self._in_src)
        out = 0
        masks = self._in_masks
        for v in iter_bits(mask):
            out |= masks[v]
        return out

    def out_mask(self, v: int) -> int:
        if self._vectorised:
            return mask_of(self._dst[self._ptr[v] : self._ptr[v + 1]].tolist())
        return self._out_masks[v]


class MultiGraph:
    """Directed multigraph whose edges may carry their own feature vectors.

    Kept only as an interchange form: analysis runs on the simple graph
    produced by :func:`convert_multigraph`.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        names: Sequence[str],
        rows: Sequence[Sequence],
        edges: Sequence[tuple[int, int, Optional[dict]]],
        color_dim: str = "color",
    ):
        if len(rows) != len(names):
            raise ValueError("one feature row per vertex required")
        if len(set(names)) != len(names):
            raise ValueError("vertex names must be unique")
        self.schema = schema
        self.names = tuple(names)
        self.rows = tuple(tuple(r) for r in rows)
        self.color_dim = color_dim
        self.n = len(names)
        for s, d, feats in edges:
            if not (0 <= s < self.n and 0 <= d < self.n):
                raise ValueError(f"edge ({s}, {d}) references unknown vertex")
            if feats:
                for key in feats:
                    if not schema.has(key):
                        raise ValueError(f"edge ({s}, {d}): unknown feature {key!r}")
        self.edges = tuple((s, d, dict(f) if f else {}) for s, d, f in edges)

    def vertex_id(self, name: str) -> int:
        return self.names.index(name)


def convert_multigraph(mg: MultiGraph) -> DirectedGraph:
    """Subdivide every edge of a multigraph into a fresh midpoint vertex.

    The midpoint carries the edge's features (missing where the edge gave
    none) and is named ``"src->dst"``, with ``#2``, ``#3``, ... suffixes when
    parallel edges or name clashes require it. Original vertices keep their
    ids, so source/target sets stated on the multigraph stay valid.
    """
    names = list(mg.names)
    taken = set(names)
    rows = [list(r) for r in mg.rows]
    simple_edges: list[tuple[int, int]] = []
    width = len(mg.schema)
    for s, d, feats in mg.edges:
        base = f"{mg.names[s]}->{mg.names[d]}"
        name = base
        k = 1
        while name in taken:
            k += 1
            name = f"{base}#{k}"
        taken.add(name)
        mid = len(names)
        names.append(name)
        row = [None] * width
        for key, value in feats.items():
            row[mg.schema.index(key)] = value
        rows.append(row)
        simple_edges.append((s, mid))
        simple_edges.append((mid, d))
    return DirectedGraph(mg.schema, names, rows, simple_edges, color_dim=mg.color_dim)


# -- set-level operators ----------------------------------------------------


def out_neighbors(g: DirectedGraph, vs: VertexSet) -> VertexSet:
    """Vertices reachable from ``vs`` by exactly one edge."""
    return VertexSet(g.n, g.out_image(vs.mask))


def in_neighbors(g: DirectedGraph, vs: VertexSet) -> VertexSet:
    """Vertices with at least one edge into ``vs``."""
    return VertexSet(g.n, g.in_image(vs.mask))


def iterated_out(g: DirectedGraph, vs: VertexSet, k: int) -> VertexSet:
    """Vertices reachable from ``vs`` by walks of exactly ``k`` edges."""
    if k < 0:
        raise ValueError("step count must be non-negative")
    mask = vs.mask
    for _ in range(k):
        if not mask:
            break
        mask = g.out_image(mask)
    return VertexSet(g.n, mask)


def iterated_in(g: DirectedGraph, vs: VertexSet, k: int) -> VertexSet:
    if k < 0:
        raise ValueError("step count must be non-negative")
    mask = vs.mask
    for _ in range(k):
        if not mask:
            break
        mask = g.in_image(mask)
    return VertexSet(g.n, mask)


def select_by_color(g: DirectedGraph, vs: VertexSet, color: str) -> VertexSet:
    """Subset of ``vs`` whose colour is ``color`` (empty for unknown colours)."""
    return VertexSet(g.n, vs.mask & g.color_mask(g.color_id(color)))


def reachability_levels(g: DirectedGraph, source: VertexSet, target: VertexSet, max_len: int) -> list[int]:
    """Walk lengths ``0..max_len`` at which some target vertex is reached.

    Length ``l`` is reported when the set of vertices exactly ``l`` steps
    from the source meets the target set.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
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
