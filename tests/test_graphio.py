import json

import pytest

from helpers import color_graph, vs
from walkmine.graph import DirectedGraph, MultiGraph
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
    assert g.vector(0) == ("red", 1)
    # absent features and absent feature blocks both read as missing
    assert g.vector(1) == ("green", None)
    assert g.vector(2) == (None, None)
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
    doc = json.loads(json.dumps(DOC))
    mangle(doc)
    with pytest.raises(GraphFormatError) as err:
        load_graph(json.dumps(doc))
    assert err.value.location == location


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
