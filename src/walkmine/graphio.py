"""Reading and writing graphs: JSON documents, vertex-set files, DOT export."""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Optional, Sequence, Union

from .bitset import VertexSet
from .graph import (
    CATEGORICAL,
    ORDERED,
    Dimension,
    DirectedGraph,
    FeatureSchema,
    MultiGraph,
    _feature_problem,
)

Graph = Union[DirectedGraph, MultiGraph]


class GraphFormatError(ValueError):
    """Malformed graph document; carries the location of the offence."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


def _fail(location: str, message: str):
    raise GraphFormatError(location, message) from None


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


def _check_entries(schema: FeatureSchema, raw_vertices: list, raw_edges: list):
    """Check a document's entries one by one, raising at the first offence."""
    ids = set()
    for i, entry in enumerate(raw_vertices):
        where = f"vertices[{i}]"
        name = _require(entry, "id", str, where)
        if name in ids:
            _fail(where, f"duplicate vertex id {name!r}")
        ids.add(name)
        if entry.get("features") is not None:  # null: every feature missing
            if problem := _feature_problem(schema, entry["features"]):
                _fail(where, problem)
    for i, entry in enumerate(raw_edges):
        where = f"edges[{i}]"
        for endpoint in (_require(entry, "src", str, where), _require(entry, "dst", str, where)):
            if endpoint not in ids:
                _fail(where, f"unknown vertex {endpoint!r}")
        if "features" in entry and (problem := _feature_problem(schema, entry["features"])):
            _fail(where, problem)


def _read_entries(schema: FeatureSchema, raw_vertices: list, raw_edges: list):
    """Vertex names, feature rows and edge endpoint ids of a document, without
    the checks of :func:`_check_entries`: a malformed entry raises KeyError or
    TypeError, and values are left for the graph's constructor to check."""
    names = list(map(itemgetter("id"), raw_vertices))
    if not set(map(type, names)) <= {str}:
        raise TypeError("vertex ids must be strings")
    ids = dict(zip(names, range(len(names))))
    feats = [entry.get("features") for entry in raw_vertices]
    if not set(map(type, feats)) <= {dict, type(None)}:
        raise TypeError("'features' must be an object")
    feats = [f or {} for f in feats]
    if not set().union(*feats) <= {d.name for d in schema}:
        raise KeyError("unknown feature")
    columns = [[f.get(d.name) for f in feats] for d in schema]
    rows = list(zip(*columns)) if columns else [()] * len(feats)
    src = list(map(ids.__getitem__, map(itemgetter("src"), raw_edges)))
    dst = list(map(ids.__getitem__, map(itemgetter("dst"), raw_edges)))
    return names, rows, src, dst


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

    # A document's entries and values are read once, on the way to the graph;
    # a document that fails somewhere is read again, entry by entry, to name
    # its first offence.
    try:
        names, rows, src, dst = _read_entries(schema, raw_vertices, raw_edges)
        if not any("features" in entry for entry in raw_edges):
            g = DirectedGraph(schema, names, rows, zip(src, dst), color_dim=color_dim)
            if g.num_edges == len(raw_edges):  # no parallel edges were merged
                return g
        # edge features or parallel edges: a multigraph
        feats = [entry.get("features", {}) for entry in raw_edges]
        if not set(map(type, feats)) <= {dict}:
            raise TypeError("'features' must be an object")
        return MultiGraph(schema, names, rows, zip(src, dst, feats), color_dim=color_dim)
    except (KeyError, TypeError, ValueError):
        _check_entries(schema, raw_vertices, raw_edges)
        raise


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
    """Parse a newline-separated list of vertex ids into a set over ``g``. A line
    names the vertex whose id is the line itself, if there is one, and else the
    one whose id is the stripped line; a blank line names none."""
    ids = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        name = line if g.has_vertex(line) else line.strip()
        if not name:
            continue
        if not g.has_vertex(name):
            _fail(f"line {lineno}", f"unknown vertex {name!r}")
        ids.append(g.vertex_id(name))
    return VertexSet.from_ids(g.n, ids)


def serialize_vertex_set(vs: VertexSet, g: DirectedGraph) -> str:
    """One id per line; ValueError for an id no line can hold: the empty id, or
    one that ``str.splitlines`` breaks."""
    names = [g.names[v] for v in vs]
    for name in names:
        if name.splitlines() != [name]:
            raise ValueError(f"vertex id {name!r} cannot be written as one line")
    return "".join(name + "\n" for name in names)


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
