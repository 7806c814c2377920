"""Shared builders for the test suite."""

from pathlib import Path

from walkmine import scp
from walkmine.bitset import VertexSet
from walkmine.graph import CATEGORICAL, Dimension, DirectedGraph, FeatureSchema
from walkmine.graphio import load_graph, parse_vertex_set
from walkmine.mining import run_levels

FIXTURES = Path(__file__).parent / "fixtures"


def color_graph(names, colors, edges) -> DirectedGraph:
    """Graph with a single categorical 'color' dimension; edges as name pairs."""
    schema = FeatureSchema((Dimension("color", CATEGORICAL),))
    ids = {n: i for i, n in enumerate(names)}
    rows = [(c,) for c in colors]
    return DirectedGraph(schema, names, rows, [(ids[u], ids[v]) for u, v in edges])


def feature_graph(dims, names, rows, edges) -> DirectedGraph:
    """Graph over an explicit schema given as (name, kind) pairs."""
    schema = FeatureSchema(tuple(Dimension(n, k) for n, k in dims))
    ids = {n: i for i, n in enumerate(names)}
    return DirectedGraph(schema, names, rows, [(ids[u], ids[v]) for u, v in edges])


def vs(g: DirectedGraph, *members: str) -> VertexSet:
    return VertexSet.from_ids(g.n, [g.vertex_id(m) for m in members])


def load_fixture(name: str):
    g = load_graph((FIXTURES / f"{name}.graph.json").read_text(encoding="utf-8"))
    src = parse_vertex_set((FIXTURES / f"{name}.source").read_text(encoding="utf-8"), g)
    tgt = parse_vertex_set((FIXTURES / f"{name}.target").read_text(encoding="utf-8"), g)
    return g, src, tgt


def color_names(g: DirectedGraph, programs) -> list:
    return sorted(tuple(g.color_names[c] for c in p) for p in programs)


def name_program(g: DirectedGraph, *colors: str) -> tuple:
    return tuple(g.color_id(c) for c in colors)


def mine_all(miner, g, src, tgt, config) -> dict:
    """Collect the per-length report stream into {length: report}."""
    return {rep.length: rep for rep in miner(g, src, tgt, config)}


# the names of the repaired colour searches, in the order scp._scp_searches lists them
SEARCHES = ("forward", "backward")


def scp_miner(mode: str, searches: tuple):
    """A colour miner that races only the named searches of :data:`SEARCHES`."""

    def make_searches(g, S, T, mode):
        return [s for name, s in zip(SEARCHES, scp._scp_searches(g, S, T, mode)) if name in searches]

    def miner(g, source, target, config):
        return run_levels(g, source, target, config, "scp", mode, (), make_searches, scp._FORWARD_STATS)

    return miner


def trace_names(g: DirectedGraph, trace) -> list:
    return [[g.names[v] for v in level] for level in trace]
