"""Reading and writing graphs: JSON documents, vertex-set files, DOT export."""

from __future__ import annotations

import json
from typing import Optional, Sequence, Union

from .bitset import VertexSet
from .graph import (
    CATEGORICAL,
    ORDERED,
    Dimension,
    DirectedGraph,
    FeatureSchema,
    MultiGraph,
    _check_value,
)

Graph = Union[DirectedGraph, MultiGraph]


class GraphFormatError(ValueError):
    """Malformed graph document; carries the location of the offence."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _fail(location: str, message: str):
    raise GraphFormatError(location, message)


def _require(doc, key, expected, location):
    if not isinstance(doc, dict) or key not in doc:
        _fail(location, f"missing required key {key!r}")
    value = doc[key]
    if not isinstance(value, expected):
        _fail(location, f"{key!r} has the wrong type")
    return value


def _load_schema(raw, location) -> FeatureSchema:
    dims = []
    for i, entry in enumerate(raw):
        where = f"{location}[{i}]"
        name = _require(entry, "name", str, where)
        kind = _require(entry, "kind", str, where)
        if kind not in (CATEGORICAL, ORDERED):
            _fail(where, f"kind must be 'categorical' or 'ordered', got {kind!r}")
        dims.append(Dimension(name, kind))
    try:
        return FeatureSchema(dims)
    except ValueError as e:
        _fail(location, str(e))


def _load_features(raw, schema: FeatureSchema, location) -> list:
    row = [None] * len(schema)
    if raw is None:
        return row
    if not isinstance(raw, dict):
        _fail(location, "'features' must be an object")
    for name, value in raw.items():
        if not schema.has(name):
            _fail(location, f"unknown feature {name!r}")
        dim = schema.index(name)
        try:
            _check_value(schema.kind_of(dim), value, f"feature {name!r}")
        except ValueError as e:
            _fail(location, str(e))
        row[dim] = value
    return row


def load_graph(text: Union[str, bytes], color_dim: str = "color") -> Graph:
    """Parse a graph document.

    Returns a :class:`MultiGraph` when any edge carries a ``features`` key or
    parallel edges exist, otherwise a :class:`DirectedGraph`. Vertex ids are
    assigned in file order. All structural problems are reported as
    :class:`GraphFormatError` with the offending location.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            _fail("document", f"not valid UTF-8: {e}")
    try:
        # reject NaN/Infinity literals, which json.loads accepts by default
        doc = json.loads(text, parse_constant=lambda c: _fail("document", f"non-finite number {c}"))
    except json.JSONDecodeError as e:
        _fail("document", f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        _fail("document", "top level must be an object")

    schema = _load_schema(_require(doc, "schema", list, "document"), "schema")
    raw_vertices = _require(doc, "vertices", list, "document")
    raw_edges = _require(doc, "edges", list, "document")

    names: list[str] = []
    rows: list[list] = []
    ids: dict[str, int] = {}
    for i, entry in enumerate(raw_vertices):
        where = f"vertices[{i}]"
        name = _require(entry, "id", str, where)
        if name in ids:
            _fail(where, f"duplicate vertex id {name!r}")
        ids[name] = len(names)
        names.append(name)
        rows.append(_load_features(entry.get("features") if isinstance(entry, dict) else None, schema, where))

    multi = False
    seen_pairs = set()
    edges: list[tuple[int, int, Optional[dict]]] = []
    for i, entry in enumerate(raw_edges):
        where = f"edges[{i}]"
        src = _require(entry, "src", str, where)
        dst = _require(entry, "dst", str, where)
        for endpoint in (src, dst):
            if endpoint not in ids:
                _fail(where, f"unknown vertex {endpoint!r}")
        feats = None
        if "features" in entry:
            multi = True
            feats = entry["features"]
            if not isinstance(feats, dict):
                _fail(where, "'features' must be an object")
            _load_features(feats, schema, where)
        pair = (ids[src], ids[dst])
        if pair in seen_pairs:
            multi = True
        seen_pairs.add(pair)
        edges.append((pair[0], pair[1], feats))

    if multi:
        return MultiGraph(schema, names, rows, [(s, d, f or {}) for s, d, f in edges], color_dim=color_dim)
    return DirectedGraph(schema, names, rows, [(s, d) for s, d, _ in edges], color_dim=color_dim)


def serialize_graph(g: Graph) -> str:
    """Render a graph back to its JSON document form (stable field order)."""
    doc = {
        "schema": [{"name": d.name, "kind": d.kind} for d in g.schema],
        "vertices": [],
        "edges": [],
    }
    for name, row in zip(g.names, g.rows):
        feats = {d.name: value for d, value in zip(g.schema.dims, row) if value is not None}
        doc["vertices"].append({"id": name, "features": feats})
    if isinstance(g, MultiGraph):
        # always spell out the features key so the document reloads as a multigraph
        for s, d, feats in g.edges:
            doc["edges"].append({"src": g.names[s], "dst": g.names[d], "features": feats})
    else:
        for s, d in g.edges():
            doc["edges"].append({"src": g.names[s], "dst": g.names[d]})
    return json.dumps(doc, indent=2) + "\n"


def parse_vertex_set(text: str, g: DirectedGraph) -> VertexSet:
    """Parse a newline-separated list of vertex ids into a set over ``g``."""
    ids = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        name = line.strip()
        if not name:
            continue
        if not g.has_vertex(name):
            _fail(f"line {lineno}", f"unknown vertex {name!r}")
        ids.append(g.vertex_id(name))
    return VertexSet.from_ids(g.n, ids)


def serialize_vertex_set(vs: VertexSet, g: DirectedGraph) -> str:
    return "".join(g.names[v] + "\n" for v in vs)


def _dot_quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + escaped + '"'


def to_dot(
    g: DirectedGraph,
    source: Optional[VertexSet] = None,
    target: Optional[VertexSet] = None,
    trace: Optional[Sequence[VertexSet]] = None,
) -> str:
    """Render a graph as DOT.

    The colour feature becomes the node fill colour, source vertices are
    double-circled, target vertices double-octagons, and an optional endpoint
    trace annotates each vertex with the steps at which it is occupied.
    """
    color_dim = g.schema.index(g.color_dim) if g.schema.has(g.color_dim) else None
    lines = ["digraph walk {"]
    for v, name in enumerate(g.names):
        attrs = []
        label = name
        if trace is not None:
            steps = [i for i, level in enumerate(trace) if v in level]
            if steps:
                label += "\n" + " ".join(f"E{i}" for i in steps)
        attrs.append(f"label={_dot_quote(label)}")
        if target is not None and v in target:
            attrs.append("shape=doubleoctagon")
        elif source is not None and v in source:
            attrs.append("shape=doublecircle")
        if color_dim is not None and g.rows[v][color_dim] is not None:
            attrs.append("style=filled")
            attrs.append(f"fillcolor={_dot_quote(str(g.rows[v][color_dim]))}")
        lines.append(f"  {_dot_quote(name)} [{', '.join(attrs)}];")
    for s, d in g.edges():
        lines.append(f"  {_dot_quote(g.names[s])} -> {_dot_quote(g.names[d])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
