import json

import pytest

from helpers import color_graph, vs
from walkmine import graphio
from walkmine.graph import CATEGORICAL, ORDERED, Dimension, DirectedGraph, FeatureSchema, MultiGraph
from walkmine.graphio import (
    GraphFormatError,
    load_graph,
    parse_vertex_set,
    serialize_graph,
    serialize_vertex_set,
    to_dot,
)

DOC = {
    "schema": [{"name": "color", "kind": "categorical"}, {"name": "n", "kind": "ordered"}],
    "vertices": [
        {"id": "u", "features": {"color": "red", "n": 1}},
        {"id": "v", "features": {"color": "green"}},
        {"id": "w"},
    ],
    "edges": [{"src": "u", "dst": "v"}, {"src": "v", "dst": "w"}],
}


def test_load_simple_graph():
    g = load_graph(json.dumps(DOC))
    assert isinstance(g, DirectedGraph)
    assert g.names == ("u", "v", "w")
    assert g.rows[0] == ("red", 1)
    # absent features and absent feature blocks both read as missing
    assert g.rows[1] == ("green", None)
    assert g.rows[2] == (None, None)
    assert g.edges() == ((0, 1), (1, 2))


def test_load_accepts_bytes():
    g = load_graph(json.dumps(DOC).encode("utf-8"))
    assert g.names == ("u", "v", "w")
    with pytest.raises(GraphFormatError):
        load_graph(b"\xff\xfe")


def test_roundtrip_simple():
    g = load_graph(json.dumps(DOC))
    again = load_graph(serialize_graph(g))
    assert again.names == g.names and again.rows == g.rows and again.edges() == g.edges()
    assert serialize_graph(again) == serialize_graph(g)


def test_edge_features_make_a_multigraph():
    doc = dict(DOC, edges=[{"src": "u", "dst": "v", "features": {"n": 3}}])
    mg = load_graph(json.dumps(doc))
    assert isinstance(mg, MultiGraph)
    assert mg.edges == ((0, 1, {"n": 3}),)


def test_parallel_edges_make_a_multigraph():
    doc = dict(DOC, edges=[{"src": "u", "dst": "v"}, {"src": "u", "dst": "v"}])
    mg = load_graph(json.dumps(doc))
    assert isinstance(mg, MultiGraph)
    assert len(mg.edges) == 2


def test_multigraph_roundtrip():
    doc = dict(DOC, edges=[{"src": "u", "dst": "v", "features": {"n": 3}}, {"src": "u", "dst": "v"}])
    mg = load_graph(json.dumps(doc))
    again = load_graph(serialize_graph(mg))
    assert isinstance(again, MultiGraph)
    assert again.edges == mg.edges


def test_constructed_multigraph_roundtrip():
    schema = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("n", ORDERED)))
    edges = [(0, 1, {"n": 2.5}), (0, 1, None), (1, 2, {"color": "red", "n": -1}), (2, 2, {})]
    mg = MultiGraph(schema, ["u", "v", "w"], [("red", 1), (None, 0.5), ("blue", None)], edges)
    again = load_graph(serialize_graph(mg))
    assert isinstance(again, MultiGraph)
    assert (again.schema, again.names, again.rows, again.edges) == (mg.schema, mg.names, mg.rows, mg.edges)
    assert serialize_graph(again) == serialize_graph(mg)


@pytest.mark.parametrize("edges", [
    [{"src": "u", "dst": "v", "features": {"n": 3}}, {"src": "v", "dst": "w", "features": {}}],
    [{"src": "u", "dst": "v"}, {"src": "u", "dst": "v"}],
])
def test_good_multigraph_document_is_read_once(monkeypatch, edges):
    def refuse(*args):
        raise AssertionError("a good document is read entry by entry")

    monkeypatch.setattr(graphio, "_check_entries", refuse)
    mg = load_graph(json.dumps(dict(DOC, edges=edges)))
    assert isinstance(mg, MultiGraph) and len(mg.edges) == 2
    assert mg.rows == (("red", 1), ("green", None), (None, None))


@pytest.mark.parametrize(
    "mangle,location",
    [
        (lambda d: d.pop("schema"), "document"),
        (lambda d: d["schema"].append({"name": "color", "kind": "categorical"}), "schema"),
        (lambda d: d["schema"].append({"name": "x", "kind": "odd"}), "schema[2]"),
        (lambda d: d["vertices"].append({"id": "u"}), "vertices[3]"),
        (lambda d: d["vertices"].append({}), "vertices[3]"),
        (lambda d: d["vertices"].append({"id": "x", "features": {"zap": 1}}), "vertices[3]"),
        (lambda d: d["vertices"].append({"id": "x", "features": {"n": "high"}}), "vertices[3]"),
        (lambda d: d["edges"].append({"src": "u", "dst": "nowhere"}), "edges[2]"),
        (lambda d: d["edges"].append({"src": "u"}), "edges[2]"),
        (lambda d: d["edges"].append({"src": "u", "dst": "v", "features": {"zap": 1}}), "edges[2]"),
        (lambda d: d["edges"].append({"src": "u", "dst": "v", "features": None}), "edges[2]"),
        (lambda d: d["edges"].append({"src": "u", "dst": "v", "features": {"n": "high"}}), "edges[2]"),
    ],
)
def test_error_locations(mangle, location):
    # the same fault in a document that loads as a simple graph and in one
    # that loads as a multigraph
    for edge_features in ({}, {"features": {"n": 2}}):
        doc = json.loads(json.dumps(DOC))
        doc["edges"][0].update(edge_features)
        mangle(doc)
        with pytest.raises(GraphFormatError) as err:
            load_graph(json.dumps(doc))
        assert err.value.location == location


def test_vertex_features_must_be_an_object():
    # a document that fails on its one-pass read names the vertex on its second read
    doc = json.loads(json.dumps(DOC))
    doc["vertices"][1]["features"] = [1]
    with pytest.raises(GraphFormatError) as err:
        load_graph(json.dumps(doc))
    assert err.value.location == "vertices[1]"
    assert "'features' must be an object" in str(err.value)


def _large_doc():
    """DOC's schema on a ring of 4,200 vertices with chords, above the dense limit."""
    n = 4200
    return {
        "schema": DOC["schema"],
        "vertices": [{"id": f"x{i}", "features": {"color": "red", "n": i}} for i in range(n)],
        "edges": [{"src": f"x{i}", "dst": f"x{(i + k) % n}"} for i in range(n) for k in (1, 7)],
    }


def _load_with_faults(doc):
    # json.dumps writes inf as Infinity, which is rejected as a document
    # fault; 1e999 reaches the loader as a float inf
    return load_graph(json.dumps(doc).replace('"INF"', "1e999"))


def _rename(doc, i, name):
    doc["vertices"][i]["id"] = name


LATE_FAULTS = {
    "unknown endpoint": ("edges", lambda d, i: d["edges"][i].update(dst="nowhere")),
    "non-string dst": ("edges", lambda d, i: d["edges"][i].update(dst=7)),
    "edge not an object": ("edges", lambda d, i: d["edges"].__setitem__(i, ["u", "v"])),
    "null edge features": ("edges", lambda d, i: d["edges"][i].update(features=None)),
    "non-finite edge feature": ("edges", lambda d, i: d["edges"][i].update(features={"n": "INF"})),
    "bool edge feature": ("edges", lambda d, i: d["edges"][i].update(features={"n": True})),
    "numeric edge colour": ("edges", lambda d, i: d["edges"][i].update(features={"color": 5})),
    "duplicate vertex id": ("vertices", lambda d, i: (_rename(d, i - 1, "dup"), _rename(d, i, "dup"))),
    "non-finite value": ("vertices", lambda d, i: d["vertices"][i].update(features={"n": "INF"})),
    "bool value": ("vertices", lambda d, i: d["vertices"][i].update(features={"n": True})),
}


@pytest.mark.parametrize("fault", sorted(LATE_FAULTS))
def test_error_locations_on_a_large_document(fault):
    # the same fault in the last entry of DOC and of a document read through
    # the edge-array layout names that entry, with the same message
    part, mangle = LATE_FAULTS[fault]
    messages = []
    for doc in (json.loads(json.dumps(DOC)), _large_doc()):
        i = len(doc[part]) - 1
        mangle(doc, i)
        with pytest.raises(GraphFormatError) as err:
            _load_with_faults(doc)
        assert err.value.location == f"{part}[{i}]"
        messages.append(str(err.value).split(": ", 1)[1])
    assert messages[0] == messages[1]


def test_large_document_reports_its_first_offence_and_parallel_edges():
    g = load_graph(json.dumps(_large_doc()))
    assert isinstance(g, DirectedGraph) and g._vectorised and g.num_edges == 8400
    # a late vertex fault is named before an early edge fault
    doc = _large_doc()
    doc["vertices"][4198]["features"] = {"n": True}
    doc["edges"][0]["dst"] = "nowhere"
    with pytest.raises(GraphFormatError) as err:
        load_graph(json.dumps(doc))
    assert err.value.location == "vertices[4198]"
    doc = _large_doc()
    doc["edges"].append(dict(doc["edges"][-1]))
    mg = load_graph(json.dumps(doc))
    assert isinstance(mg, MultiGraph) and len(mg.edges) == 8401 and mg.edges[-1] == mg.edges[-2]


def test_rejects_bad_json_and_nonfinite():
    with pytest.raises(GraphFormatError):
        load_graph("{not json")
    with pytest.raises(GraphFormatError):
        load_graph("[1, 2]")
    doc = json.dumps(DOC).replace('"n": 1', '"n": NaN')
    with pytest.raises(GraphFormatError):
        load_graph(doc)


def test_parse_vertex_set():
    g = load_graph(json.dumps(DOC))
    assert parse_vertex_set("u\n\n w \n", g) == vs(g, "u", "w")
    assert not parse_vertex_set("", g)
    with pytest.raises(GraphFormatError) as err:
        parse_vertex_set("u\nzz\n", g)
    assert err.value.location == "line 2"


def test_serialize_vertex_set_roundtrip():
    g = load_graph(json.dumps(DOC))
    s = vs(g, "w", "u")
    assert parse_vertex_set(serialize_vertex_set(s, g), g) == s


def test_vertex_files_name_ids_with_outer_spaces_exactly():
    # stripping every line would read the id " a" as "a", a different vertex
    names = ["a", " a", "b ", "  ", "c"]
    g = color_graph(names, ["red"] * 5, [])
    for members in ([" a"], ["a", " a"], ["b ", "  "], names):
        s = vs(g, *members)
        assert parse_vertex_set(serialize_vertex_set(s, g), g) == s
    # a line that is no id still names its stripped form, and a blank line none
    assert parse_vertex_set("c \n\n   \n  a  \n", g) == vs(g, "c", "a")
    with pytest.raises(GraphFormatError):
        parse_vertex_set(" b", g)


@pytest.mark.parametrize("name", ["", "x\ny", "x\r", "x\x85y", "x\u2028"])
def test_an_id_no_line_can_hold_is_not_written(name):
    # a blank line names no vertex, so the empty id cannot be written either
    g = color_graph(["a", name], ["red", "red"], [])
    assert serialize_vertex_set(vs(g, "a"), g) == "a\n"
    with pytest.raises(ValueError, match="one line"):
        serialize_vertex_set(vs(g, "a", name), g)


def test_to_dot_marks_roles_and_trace():
    g = color_graph(
        ["s", "a", "t"],
        ["blue", "red", "green"],
        [("s", "a"), ("a", "t")],
    )
    trace = [vs(g, "s"), vs(g, "a"), vs(g, "t")]
    dot = to_dot(g, source=vs(g, "s"), target=vs(g, "t"), trace=trace)
    assert dot.startswith("digraph")
    assert '"s" -> "a";' in dot
    assert "doublecircle" in dot and "doubleoctagon" in dot
    assert 'label="a\\nE1"' in dot
    assert "fillcolor=" in dot


def test_to_dot_target_wins_over_source():
    g = color_graph(["x"], ["red"], [])
    dot = to_dot(g, source=vs(g, "x"), target=vs(g, "x"))
    assert "doubleoctagon" in dot and "doublecircle" not in dot


def test_to_dot_quotes_awkward_names():
    g = color_graph(['he"llo', "world"], ["red", "red"], [('he"llo', "world")])
    dot = to_dot(g)
    assert '"he\\"llo"' in dot
