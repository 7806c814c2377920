from walkmine import VertexSet, load_graph, parse_vertex_set, serialize_graph
from walkmine.generate import layered_graph, random_instance, write_instance
from walkmine.graph import CATEGORICAL, ORDERED


def test_same_seed_same_instance():
    a = random_instance(12345)
    b = random_instance(12345)
    assert serialize_graph(a.graph) == serialize_graph(b.graph)
    assert (a.source, a.target) == (b.source, b.target)
    assert a.meta == b.meta
    c = random_instance(12346)
    assert serialize_graph(a.graph) != serialize_graph(c.graph)


def test_instance_bounds():
    for seed in range(80):
        inst = random_instance(seed)
        g = inst.graph
        assert 4 <= g.n <= 12
        assert g.num_colors <= 4
        assert inst.source and inst.target
        assert inst.source.size == g.n and inst.target.size == g.n
        assert inst.meta["seed"] == seed
    small = random_instance(7, max_vertices=6)
    assert small.graph.n <= 6


def test_singleton_target():
    for seed in range(30):
        inst = random_instance(seed, singleton_target=True)
        assert len(inst.target) == 1


def test_extra_dimensions():
    inst = random_instance(3, extra_dims=2)
    schema = inst.graph.schema
    assert [d.name for d in schema.dims] == ["color", "x0", "x1"]
    assert [d.kind for d in schema.dims] == [CATEGORICAL, ORDERED, ORDERED]
    for v in range(inst.graph.n):
        for value in inst.graph.rows[v][1:]:
            assert value is None or isinstance(value, int)


def test_layered_graph_shape():
    g = layered_graph([3, 4, 2], ["red", "blue"], out_degree=2, seed=11)
    assert g.n == 9
    assert [g.names[v] for v in range(3)] == ["L0_0", "L0_1", "L0_2"]
    layer_of = {v: int(g.names[v][1]) for v in range(g.n)}
    colors = {0: "red", 1: "blue", 2: "red"}
    for v in range(g.n):
        assert g.color_names[g.color_of(v)] == colors[layer_of[v]]
        succ = VertexSet(g.n, g.out_mask(v))
        assert len(succ) <= 2
        for u in succ:
            assert layer_of[u] == layer_of[v] + 1
        if layer_of[v] < 2:
            assert succ
    again = layered_graph([3, 4, 2], ["red", "blue"], out_degree=2, seed=11)
    assert serialize_graph(again) == serialize_graph(g)


def test_write_instance_roundtrip(tmp_path):
    inst = random_instance(42)
    paths = write_instance(inst, tmp_path / "out", "sample")
    assert [p.name for p in paths] == [
        "sample.graph.json",
        "sample.source",
        "sample.target",
    ]
    g = load_graph(paths[0].read_text(encoding="utf-8"))
    assert serialize_graph(g) == serialize_graph(inst.graph)
    assert parse_vertex_set(paths[1].read_text(encoding="utf-8"), g) == inst.source
    assert parse_vertex_set(paths[2].read_text(encoding="utf-8"), g) == inst.target
