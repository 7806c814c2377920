import json
import random

import numpy as np
import pytest

import walkmine.graph as graphmod
from helpers import color_graph, feature_graph, vs
from literal_reference import literal
from oracle_reference import count_walks, walk_traces
from walkmine.bitset import VertexSet, iter_bits, mask_of
from walkmine.criterion import Atom
from walkmine.generate import random_instance
from walkmine.graph import (
    _DENSE_LIMIT,
    CATEGORICAL,
    ORDERED,
    Dimension,
    DirectedGraph,
    FeatureSchema,
    MultiGraph,
    convert_multigraph,
    in_neighbors,
    iterated_in,
    iterated_out,
    out_neighbors,
    reachability_levels,
    select_by_color,
)
from walkmine.graphio import load_graph, serialize_graph
from walkmine.mining import MiningConfig
from walkmine.scp import (
    classify_scp,
    covers,
    enumerate_pseudo_bases,
    injects,
    mine_exact_scp,
    mine_feasible_scp,
    outspans,
    simulate_scp,
    spans,
)
from walkmine.stp import classify_stp, consistent, select_by_criterion, simulate_stp


def small_graph():
    return color_graph(
        ["s1", "s2", "a", "b", "c", "t"],
        ["blue", "blue", "red", "red", "blue", "green"],
        [("s1", "a"), ("s2", "b"), ("a", "t"), ("b", "t"), ("a", "c")],
    )


def test_schema_validation():
    with pytest.raises(ValueError):
        FeatureSchema((Dimension("x", "weird"),))
    with pytest.raises(ValueError):
        FeatureSchema((Dimension("x", ORDERED), Dimension("x", CATEGORICAL)))
    s = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("n", ORDERED)))
    assert s.index("n") == 1 and s.has("color") and not s.has("z")
    with pytest.raises(KeyError):
        s.index("z")


def test_schema_from_an_iterator_compares_by_its_dimensions():
    dims = (Dimension("color", CATEGORICAL), Dimension("n", ORDERED))
    s = FeatureSchema(iter(dims))
    assert s.dims == dims and len(s) == 2 and s.index("n") == 1
    assert s == FeatureSchema(dims) and s != FeatureSchema(dims[:1])
    assert s != "color"


def test_row_validation():
    schema = FeatureSchema((Dimension("n", ORDERED),))
    with pytest.raises(ValueError):
        DirectedGraph(schema, ["v"], [("oops",)], [])
    with pytest.raises(ValueError):
        DirectedGraph(schema, ["v"], [(True,)], [])
    with pytest.raises(ValueError):
        DirectedGraph(schema, ["v"], [(float("nan"),)], [])
    with pytest.raises(ValueError):
        DirectedGraph(schema, ["v"], [(1, 2)], [])
    with pytest.raises(ValueError):
        DirectedGraph(schema, ["v", "v"], [(1,), (2,)], [])
    # None is always allowed: the feature is simply missing
    g = DirectedGraph(schema, ["v"], [(None,)], [])
    assert g.rows[0] == (None,)


def test_edge_validation_and_dedup():
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    with pytest.raises(ValueError):
        DirectedGraph(schema, ["v"], [("red",)], [(0, 1)])
    g = DirectedGraph(schema, ["u", "v"], [("red",), ("red",)], [(0, 1), (0, 1)])
    assert g.num_edges == 1 and g.edges() == ((0, 1),)


def test_color_interning_first_occurrence_order():
    g = small_graph()
    assert g.color_names == ("blue", "red", "green")
    assert g.color_id("red") == 1 and g.color_id("magenta") == -1
    assert g.color_of(g.vertex_id("t")) == 2
    assert g.color_mask(1) == mask_of([g.vertex_id("a"), g.vertex_id("b")])
    assert g.color_mask(-1) == 0 and g.color_mask(99) == 0


def test_missing_color_means_no_class():
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    g = DirectedGraph(schema, ["u", "v"], [("red",), (None,)], [(0, 1)])
    assert g.color_of(1) == -1
    assert g.num_colors == 1


def test_color_dim_must_be_categorical():
    schema = FeatureSchema((Dimension("color", ORDERED),))
    g = DirectedGraph(schema, ["u"], [(3,)], [])
    with pytest.raises(ValueError):
        g.color_names


def test_alternate_color_dim():
    schema = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("kind", CATEGORICAL)))
    g = DirectedGraph(schema, ["u", "v"], [("red", "x"), ("red", "y")], [(0, 1)], color_dim="kind")
    assert g.color_names == ("x", "y")


def test_neighborhood_operators():
    g = small_graph()
    S = vs(g, "s1", "s2")
    assert out_neighbors(g, S) == vs(g, "a", "b")
    assert in_neighbors(g, vs(g, "t")) == vs(g, "a", "b")
    assert iterated_out(g, S, 0) == S
    assert iterated_out(g, S, 2) == vs(g, "t", "c")
    assert iterated_in(g, vs(g, "t"), 2) == vs(g, "s1", "s2")
    assert not iterated_out(g, vs(g, "t"), 5)
    with pytest.raises(ValueError):
        iterated_out(g, S, -1)


def test_select_by_color():
    g = small_graph()
    assert select_by_color(g, g.full_set(), "red") == vs(g, "a", "b")
    assert not select_by_color(g, g.full_set(), "magenta")
    assert select_by_color(g, vs(g, "a", "t"), "red") == vs(g, "a")


def test_reachability_levels():
    g = small_graph()
    assert reachability_levels(g, vs(g, "s1", "s2"), vs(g, "t"), 4) == [2]
    assert reachability_levels(g, vs(g, "s1"), vs(g, "s1"), 2) == [0]
    assert reachability_levels(g, vs(g, "t"), vs(g, "s1"), 3) == []
    with pytest.raises(ValueError):
        reachability_levels(g, vs(g, "t"), vs(g, "s1"), -1)


def test_images_match_edge_scan_on_random_graphs():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 16)
        edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))}
        schema = FeatureSchema((Dimension("color", CATEGORICAL),))
        g = DirectedGraph(schema, [f"v{i}" for i in range(n)], [("x",)] * n, edges)
        probe = VertexSet.from_ids(n, [i for i in range(n) if rng.random() < 0.5])
        exp_out = {d for (s, d) in edges if s in probe}
        exp_in = {s for (s, d) in edges if d in probe}
        assert set(out_neighbors(g, probe)) == exp_out
        assert set(in_neighbors(g, probe)) == exp_in


def test_vectorised_images_agree_with_mask_path(monkeypatch):
    rng = random.Random(11)
    n = 60
    edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(300)}
    # sinks 0 and 7 (no out-edges), sources 3 and n-1 (no in-edges)
    edges = {(s, d) for s, d in edges if s not in (0, 7) and d not in (3, n - 1)}
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    names = [f"v{i}" for i in range(n)]
    rows = [("x",)] * n
    small = DirectedGraph(schema, names, rows, edges)
    monkeypatch.setattr(graphmod, "_DENSE_LIMIT", 10)
    big = DirectedGraph(schema, names, rows, edges)
    bare = DirectedGraph(schema, names, rows, [])
    assert big._vectorised and bare._vectorised and not small._vectorised
    assert small.out_mask(0) == small.out_mask(7) == 0 and small.out_mask(n - 1)
    assert small.in_image(1 << 3) == small.in_image(1 << (n - 1)) == 0
    full = (1 << n) - 1
    probes = [0, full] + [1 << v for v in range(n)]
    probes += [VertexSet.from_ids(n, [i for i in range(n) if rng.random() < 0.3]).mask for _ in range(40)]
    for mask in probes:
        assert big.out_image(mask) == small.out_image(mask)
        assert big.in_image(mask) == small.in_image(mask)
        assert bare.out_image(mask) == bare.in_image(mask) == 0
    assert small.out_image(full) and small.in_image(full)
    for v in range(n):
        assert big.out_mask(v) == small.out_mask(v)
        assert bare.out_mask(v) == 0


def test_edge_array_images_at_scale_match_an_edge_scan():
    # above the dense limit unpatched, n not a multiple of 8, skewed degrees:
    # hub 0 has 1,200 out-edges, the top quarter of the ids are sinks and
    # every fifth id below them a source
    rng = random.Random(34)
    n = _DENSE_LIMIT + 61
    sinks = set(range(3 * n // 4, n))
    sources = set(range(5, 3 * n // 4, 5))
    inner = [v for v in range(n) if v not in sources]
    edges = {(0, d) for d in rng.sample(inner, 1200)}
    edges |= {(s, rng.choice(inner)) for s in range(1, 3 * n // 4) for _ in range(rng.randint(0, 4))}
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    g = DirectedGraph(schema, [f"v{i}" for i in range(n)], [("x",)] * n, edges)
    assert g._vectorised and n % 8 and len({d for s, d in edges if s == 0}) > 1000

    def out_scan(mask):
        return mask_of({d for s, d in edges if mask >> s & 1})

    def in_scan(mask):
        return mask_of({s for s, d in edges if mask >> d & 1})

    full = (1 << n) - 1
    sink_mask, source_mask = mask_of(sinks), mask_of(sources)
    probes = [full, sink_mask, source_mask, mask_of(rng.sample(sorted(sinks), 40))]
    probes += [1 << v for v in (0, 1, 5, 3 * n // 4, n - 62, n - 8, n - 1)]
    probes += [rng.getrandbits(n) for _ in range(6)]
    probes += [mask_of(rng.sample(range(n), k)) for k in (2, 30, 1000)]
    assert out_scan(sink_mask) == 0 and in_scan(source_mask) == 0
    for mask in probes:
        image = out_scan(mask)
        assert g.out_image(mask) == image
        assert g.in_image(mask) == in_scan(mask)
        for keep in (0, full, image, rng.getrandbits(n), image & rng.getrandbits(n)):
            kept = image & keep
            stranded = mask & ~mask_of({s for s, d in edges if mask >> s & 1 and keep >> d & 1})
            assert g.step(mask, keep) == (kept, stranded)


def _on_both_layouts(monkeypatch, build):
    """``build()`` on the mask layout, then on the edge-array layout."""
    masks = build()
    with monkeypatch.context() as m:
        m.setattr(graphmod, "_DENSE_LIMIT", 2)
        arrays = build()
    assert arrays._vectorised and not masks._vectorised
    return masks, arrays


def test_step_is_the_kept_image_and_the_stranded_vertices(monkeypatch):
    rng = random.Random(21)
    n = 45  # not a multiple of 8
    pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(120)}
    pairs = {(s, d) for s, d in pairs if s not in (0, 9)}  # sinks 0 and 9
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    build = lambda: DirectedGraph(schema, [f"v{i}" for i in range(n)], [("x",)] * n, pairs)
    full = (1 << n) - 1
    sinks = 1 << 0 | 1 << 9
    probes = [0, full, sinks] + [rng.getrandbits(n) for _ in range(30)]
    probes += [rng.getrandbits(n) | sinks for _ in range(10)]
    keeps = [0, full] + [rng.getrandbits(n) for _ in range(10)]
    for g in _on_both_layouts(monkeypatch, build):
        assert g.out_mask(0) == g.out_mask(9) == 0
        for mask in probes:
            image = g.out_image(mask)
            # keeps that drop nothing: the image itself, and proper supersets short of full
            wider = [image | rng.getrandbits(n) for _ in range(5)]
            wider = [keep for keep in wider if keep not in (image, full)]
            assert wider or mask in (0, full)
            for keep in keeps + [image] + wider:
                kept = image & keep
                assert g.step(mask, keep) == (kept, mask & ~g.in_image(kept))
            # a sink is stranded whatever the step keeps; an empty keep strands all
            assert g.step(mask, full)[1] & sinks == mask & sinks
            assert g.step(mask, 0) == (0, mask)
        assert g.step(0, full) == (0, 0)


def test_edge_array_step_takes_the_in_image_only_when_it_keeps_and_drops(monkeypatch):
    # 1 -> 2, 1 -> 3, 2 -> 4, 3 -> 5; sinks 0, 4 and 5
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    build = lambda: DirectedGraph(schema, [f"v{i}" for i in range(6)], [("x",)] * 6, [(1, 2), (1, 3), (2, 4), (3, 5)])
    masks, arrays = _on_both_layouts(monkeypatch, build)
    calls = []
    image = DirectedGraph._np_image
    monkeypatch.setattr(DirectedGraph, "_np_image", lambda g, *args: calls.append(args[0]) or image(g, *args))
    cases = [
        ("empty mask", 0, 0b111111, 0),
        ("nothing kept", 0b000010, 0b000001, 1),
        ("nothing dropped", 0b000011, 0b101100, 1),
        ("partial keep", 0b001010, 0b000100, 2),
    ]
    for case, mask, keep, images in cases:
        calls.clear()
        assert arrays.step(mask, keep) == masks.step(mask, keep), case
        assert len(calls) == images, case
    assert arrays.step(0b001010, 0b000100) == (0b000100, 0b001000)


def test_color_masks_match_a_per_vertex_definition(monkeypatch):
    rng = random.Random(8)
    n = 61  # not a multiple of 8
    colours = [rng.choice(["red", "blue", "green", None]) for _ in range(n)]
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(80)]
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    build = lambda: DirectedGraph(schema, [f"v{i}" for i in range(n)], [(c,) for c in colours], pairs)
    for g in _on_both_layouts(monkeypatch, build):
        assert sorted(g.color_names) == ["blue", "green", "red"]
        for name in g.color_names:
            cid = g.color_id(name)
            assert g.color_mask(cid) == mask_of(v for v in range(n) if colours[v] == name)
            assert all(g.color_of(v) == cid for v in iter_bits(g.color_mask(cid)))
        uncoloured = mask_of(v for v in range(n) if colours[v] is None)
        assert uncoloured and all(g.color_of(v) == -1 for v in iter_bits(uncoloured))
        assert sum(map(g.color_mask, range(g.num_colors))) == ((1 << n) - 1) & ~uncoloured


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 61, 64, 65, _DENSE_LIMIT + 61])
def test_per_vertex_label_colour_masks_match_or_ed_bits(n):
    # each vertex its own colour, every tenth uncoloured, and the last vertex
    # sharing the first one's: a class's buffer ends at its last member; then
    # three colours whose classes a second, ordered column splits into vector
    # classes, a missing value among them
    own = [None if v % 10 == 3 else f"c{v}" for v in range(n)]
    own[-1:] = own[:1]
    shapes = [
        ((Dimension("color", CATEGORICAL),), [(c,) for c in own]),
        ((Dimension("color", CATEGORICAL), Dimension("w", ORDERED)),
         [(None if v % 10 == 3 else f"c{v % 3}", None if v % 7 == 5 else v % 4) for v in range(n)]),
    ]
    for dims, rows in shapes:
        g = DirectedGraph(FeatureSchema(dims), [f"v{v}" for v in range(n)], rows, [(v, (v + 1) % n) for v in range(n)])
        assert g._vectorised == (n >= _DENSE_LIMIT)
        colours: dict = {}
        vectors: dict = {}
        for v, row in enumerate(rows):
            if row[0] is not None:
                colours[row[0]] = colours.get(row[0], 0) | 1 << v
            vectors[row] = vectors.get(row, 0) | 1 << v
        assert g.color_names == tuple(colours)
        for cid, (name, mask) in enumerate(colours.items()):  # ids by first occurrence
            assert g.color_id(name) == cid and g.color_mask(cid) == mask
        assert [g.color_of(v) for v in range(n)] == [-1 if row[0] is None else g.color_id(row[0]) for row in rows]
        assert [g.twins(1 << v) for v in range(n)] == [vectors[row] for row in rows]
        assert g.twins((1 << n) - 1) == (1 << n) - 1 and g.twins(0) == 0


def test_both_layouts_build_the_same_graph(monkeypatch):
    rng = random.Random(5)
    n = 100  # above 64, where 1 << np.int64(d) wraps to 0
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(150)]
    pairs += pairs[:30]  # duplicate pairs, out of order
    schema = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("n", ORDERED)))
    names = [f"v{i}" for i in range(n)]
    rows = [(rng.choice(["red", "blue", None]), rng.choice([1, 2.5, None])) for _ in range(n)]
    doc = {
        "schema": [{"name": "color", "kind": CATEGORICAL}, {"name": "n", "kind": ORDERED}],
        "vertices": [{"id": name, "features": {"color": c, "n": x}} for name, (c, x) in zip(names, rows)],
        "edges": [{"src": names[s], "dst": names[d]} for s, d in sorted(set(pairs), reverse=True)],
    }
    builds = {
        "set": lambda: DirectedGraph(schema, names, rows, set(pairs)),
        "unsorted list with duplicates": lambda: DirectedGraph(schema, names, rows, pairs),
        "iterator": lambda: DirectedGraph(schema, names, rows, iter(pairs)),
        "numpy integer ids": lambda: DirectedGraph(schema, names, rows, [(np.int64(s), np.int32(d)) for s, d in pairs]),
        "lists of two ids": lambda: DirectedGraph(schema, names, rows, [[s, d] for s, d in pairs]),
        "load_graph": lambda: load_graph(json.dumps(doc)),
    }
    expected_edges = tuple(sorted(set(pairs)))
    probes = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(20)]
    for how, build in builds.items():
        masks, arrays = _on_both_layouts(monkeypatch, build)
        for g in (masks, arrays):
            assert g.names == tuple(names) and g.rows == tuple(rows), how
            assert g.num_edges == len(expected_edges) and g.edges() == expected_edges, how
            assert [g.out_mask(v) for v in range(n)] == [masks.out_mask(v) for v in range(n)], how
            for mask in probes:
                assert g.out_image(mask) == masks.out_image(mask), how
                assert g.in_image(mask) == masks.in_image(mask), how


@pytest.mark.parametrize(
    "edges,named",
    [
        ([(5, 1), (2, 9), (2, 7), (0, 1)], (2, 7)),
        ([(5, 1), (2, 9), (-1, 3), (6, 0)], (-1, 3)),
        ({(3, 6), (0, 1)}, (3, 6)),
    ],
)
def test_out_of_range_edge_is_named_alike_on_both_layouts(monkeypatch, edges, named):
    # the smallest bad pair in sorted order is named, whatever the input order
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    names, rows = [f"v{i}" for i in range(6)], [("x",)] * 6
    messages = []
    for limit in (10**6, 2):
        monkeypatch.setattr(graphmod, "_DENSE_LIMIT", limit)
        with pytest.raises(ValueError) as err:
            DirectedGraph(schema, names, rows, edges)
        messages.append(str(err.value))
    assert messages == [f"edge {named} references unknown vertex"] * 2
    # an id beyond int64 is out of range on the edge-array layout too
    with pytest.raises(ValueError, match="references unknown vertex"):
        DirectedGraph(schema, names, rows, [(0, 2**70)])


@pytest.mark.parametrize(
    "edge, error",
    [((0, 1.5), TypeError), ((0, "1"), TypeError), ((0,), ValueError), ((0, 1, 2), ValueError)],
    ids=["float", "string", "short", "long"],
)
def test_malformed_edge_raises_alike_on_both_layouts(monkeypatch, edge, error):
    # np.fromiter with a (int64, 2) dtype reads (0, 1.5) and (0, "1") as (0, 1), and (0,) as (0, 0)
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    names, rows = [f"v{i}" for i in range(6)], [("x",)] * 6
    for limit in (10**6, 2):
        monkeypatch.setattr(graphmod, "_DENSE_LIMIT", limit)
        with pytest.raises(error):
            DirectedGraph(schema, names, rows, [(2, 3), edge])


def test_bad_values_are_named_in_row_order():
    # v1 holds a bad value in the second dimension, v2 one in the first: a
    # check that scanned dimension by dimension would name v2 first
    schema = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("n", ORDERED)))
    names = ["v0", "v1", "v2"]
    rows = [("red", 1), ("red", True), (5, 2)]
    with pytest.raises(ValueError) as err:
        DirectedGraph(schema, names, rows, [])
    assert str(err.value) == "vertex 'v1', dimension 'n': ordered dimension needs a number, got True"
    rows = [("red", 1), ("red", 2), (5, float("inf"))]
    with pytest.raises(ValueError) as err:
        DirectedGraph(schema, names, rows, [])
    assert str(err.value) == "vertex 'v2', dimension 'color': categorical dimension needs a string, got 5"
    rows = [("red", 1), ("red",), (5, 2)]
    with pytest.raises(ValueError) as err:
        DirectedGraph(schema, names, rows, [])
    assert str(err.value) == "vertex 'v1': row width differs from schema"


def test_multigraph_feature_validation():
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    with pytest.raises(ValueError):
        MultiGraph(schema, ["u", "v"], [("r",), ("g",)], [(0, 1, {"nope": 1})])


def test_multigraph_reads_edge_ids_as_directed_graph_does():
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    with pytest.raises(TypeError):
        MultiGraph(schema, ["a", "b"], [("r",), ("g",)], [(0, 1.5, None)])
    mg = MultiGraph(schema, ["a", "b"], [("r",), ("g",)], [(np.int64(0), np.int32(1), None)])
    assert [type(v) for v in mg.edges[0][:2]] == [int, int]
    assert convert_multigraph(mg).edges() == ((0, 2), (2, 1))


def test_multigraph_rejects_an_out_of_range_endpoint():
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) references unknown vertex$"):
        MultiGraph(schema, ["u", "v"], [("r",), ("g",)], [(0, 2, {})])


BAD_TABLES = {
    "short row": ([("red", 1), ("red",)], "vertex 'v1': row width differs from schema"),
    "long row": ([("red", 1, 5), ("red", 2)], "vertex 'v0': row width differs from schema"),
    "mistyped value": (
        [("red", 1), ("red", "x")], "vertex 'v1', dimension 'n': ordered dimension needs a number, got 'x'"
    ),
    "missing row": ([("red", 1)], "one feature row per vertex required"),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_multigraph_checks_rows_as_the_simple_graph_does(case):
    schema = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("n", ORDERED)))
    rows, message = BAD_TABLES[case]
    for make in (DirectedGraph, MultiGraph):
        with pytest.raises(ValueError) as err:
            make(schema, ["v0", "v1"], rows, [])
        assert str(err.value) == message


@pytest.mark.parametrize("feats,problem", [
    ({"n": float("nan")}, "feature 'n': non-finite number nan"),
    ({"n": True}, "feature 'n': ordered dimension needs a number, got True"),
    ({"color": 5}, "feature 'color': categorical dimension needs a string, got 5"),
    ({"nope": 1}, "unknown feature 'nope'"),
])
def test_multigraph_names_the_edge_of_a_bad_feature_value(feats, problem):
    schema = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("n", ORDERED)))
    edges = [(0, 1, {"n": 2.5}), (1, 0, None), (1, 0, feats)]
    with pytest.raises(ValueError) as err:
        MultiGraph(schema, ["u", "v"], [("red", 1), ("red", 2)], edges)
    assert str(err.value) == f"edge (1, 0): {problem}"


def test_convert_multigraph_subdivides():
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    mg = MultiGraph(
        schema,
        ["u", "v"],
        [("red",), ("green",)],
        [(0, 1, {"color": "blue"}), (0, 1, None)],
    )
    g = convert_multigraph(mg)
    assert g.names == ("u", "v", "u->v", "u->v#2")
    # originals keep their ids
    assert g.vertex_id("u") == 0 and g.vertex_id("v") == 1
    assert g.rows[g.vertex_id("u->v")] == ("blue",)
    assert g.rows[g.vertex_id("u->v#2")] == (None,)
    assert set(g.edges()) == {(0, 2), (2, 1), (0, 3), (3, 1)}


def test_multigraph_vertex_id():
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    mg = MultiGraph(schema, ["u", "v"], [("r",), ("g",)], [(0, 1, None)])
    assert mg.vertex_id("v") == 1
    with pytest.raises(KeyError, match="no vertex named 'zz'"):
        mg.vertex_id("zz")


def test_convert_multigraph_name_clash():
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    mg = MultiGraph(schema, ["u", "v", "u->v"], [("r",), ("g",), ("b",)], [(0, 1, None)])
    g = convert_multigraph(mg)
    assert "u->v#2" in g.names


# -- feature-vector twins ----------------------------------------------------------


@pytest.mark.parametrize("extra_dims", [0, 1, 2])
def test_twins_match_a_per_vertex_definition(extra_dims):
    for seed in range(1000, 1040):
        g = random_instance(seed, extra_dims=extra_dims).graph
        rng = random.Random(seed)
        for mask in [0, (1 << g.n) - 1] + [rng.getrandbits(g.n) for _ in range(8)]:
            members = list(iter_bits(mask))
            brute = mask_of(u for u in range(g.n) if any(g.rows[u] == g.rows[v] for v in members))
            assert g.twins(mask) == brute


def test_twins_compare_vectors_as_tuples():
    # a missing value equals a missing value, and 1 equals 1.0
    g = feature_graph(
        [("color", CATEGORICAL), ("w", ORDERED)], ["a", "b", "c", "d", "e"],
        [("r", 1), ("r", 1.0), ("r", None), ("r", None), ("g", 1)], [],
    )
    assert g.twins(vs(g, "a").mask) == vs(g, "a", "b").mask
    assert g.twins(vs(g, "d").mask) == vs(g, "c", "d").mask
    assert g.twins(vs(g, "b", "e").mask) == vs(g, "a", "b", "e").mask


def test_vector_map_is_built_on_first_use_only():
    inst = random_instance(1003, extra_dims=2)
    g = load_graph(serialize_graph(inst.graph))
    assert g._vectors is None
    for miner in (mine_exact_scp, mine_feasible_scp):
        for run in (miner, literal(miner)):
            list(run(g, inst.source, inst.target, MiningConfig(max_len=4)))
    assert g._vectors is None
    g.twins(1)
    assert g._vectors is not None


# -- vertex sets of another universe -------------------------------------------------

_RED = Atom(0, "=", "red")
FOREIGN_CALLS = {
    "select_by_color": lambda g, X: select_by_color(g, X, "red"),
    "select_by_criterion": lambda g, X: select_by_criterion(g, X, _RED),
    "simulate_scp": lambda g, X: simulate_scp(g, X, (0,)),
    "simulate_stp": lambda g, X: simulate_stp(g, X, (_RED,)),
    "classify_scp": lambda g, X: classify_scp(g, X, g.full_set(), (0,)),
    "classify_scp target": lambda g, X: classify_scp(g, g.full_set(), X, (0,)),
    "classify_stp": lambda g, X: classify_stp(g, X, g.full_set(), (_RED,)),
    "consistent": lambda g, X: consistent(g, X, g.vertex_set(), g.vertex_set()),
    "consistent sides": lambda g, X: consistent(g, g.full_set(), X, VertexSet(X.size)),
    "mine_exact_scp": lambda g, X: list(mine_exact_scp(g, X, g.full_set(), MiningConfig(max_len=1))),
    "out_neighbors": out_neighbors,
    "in_neighbors": in_neighbors,
    "iterated_out": lambda g, X: iterated_out(g, X, 2),
    "iterated_in": lambda g, X: iterated_in(g, X, 2),
    "reachability_levels": lambda g, X: reachability_levels(g, X, g.full_set(), 2),
    "reachability_levels target": lambda g, X: reachability_levels(g, g.full_set(), X, 2),
    "count_walks": lambda g, X: count_walks(g, X, g.full_set(), 1),
    "count_walks target": lambda g, X: count_walks(g, g.full_set(), X, 1),
    "walk_traces": lambda g, X: walk_traces(g, X, g.full_set(), 1),
    "covers": lambda g, X: covers(g, X, g.full_set(), 0),
    "covers B": lambda g, X: covers(g, g.full_set(), X, 0),
    "outspans": lambda g, X: outspans(g, X, g.full_set(), 0),
    "outspans B": lambda g, X: outspans(g, g.full_set(), X, 0),
    "injects": lambda g, X: injects(g, X, g.full_set(), 0),
    "injects B": lambda g, X: injects(g, g.full_set(), X, 0),
    "spans": lambda g, X: spans(g, X, g.full_set(), 0),
    "spans B": lambda g, X: spans(g, g.full_set(), X, 0),
    "enumerate_pseudo_bases pool": lambda g, X: list(enumerate_pseudo_bases(g, X, g.full_set(), g.full_set(), 0)),
    "enumerate_pseudo_bases B": lambda g, X: list(enumerate_pseudo_bases(g, g.full_set(), X, g.full_set(), 0)),
    "enumerate_pseudo_bases M": lambda g, X: list(enumerate_pseudo_bases(g, g.full_set(), g.full_set(), X, 0)),
}


@pytest.mark.parametrize("size", [3, 11])
@pytest.mark.parametrize("call", FOREIGN_CALLS.values(), ids=FOREIGN_CALLS.keys())
def test_foreign_universe_sets_raise(call, size):
    g = small_graph()  # six vertices
    with pytest.raises(ValueError, match="universe"):
        call(g, VertexSet.full(size))
