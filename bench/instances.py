"""Seeded benchmark inputs, built without the walkmine package.

Every instance is a graph document plus source and target vertex lists,
rendered to the same text forms the command line reads. The edge list and
feature rows that produced the document are kept beside it, so that the
reference checker can walk the graph without going through walkmine.

The shapes of the mined graphs come from fixed shape seeds, and the
benchmark seed draws a relabelled copy: vertex names, the order of vertices
and edges in the document (which fixes walkmine's vertex ids and bit
positions), colour names and the values of ordered features, under an
order-preserving map. The amount of search work of a backward miner on a
random layered graph varies about fourfold from one random shape to the next
(39,020 against 7,318 pseudo-bases at width 15), so a benchmark whose shapes
followed the seed would measure the draw, not the code. A relabelled copy
costs the miners the same work, and still gives each seed other ids, names
and values. The random program batches are drawn once per graph and renamed
with it, so verify and simulate do the same work for every seed too. The
100k-edge graph of the ``large-graph`` workload is only walked, and is drawn
from the seed outright.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Optional

PALETTE = (
    "red", "green", "blue", "yellow", "purple", "brown", "orange", "pink",
    "cyan", "olive", "teal", "navy", "coral", "amber", "ivory", "slate",
)

# Shape seed of the mined graphs; at width 15 the layered shape is the graph
# behind the 39,020 pseudo-base / 34,876 dedup-hit figures of the roadmap.
SHAPE_SEED = 1


@dataclass
class Instance:
    """One graph with its source, target, mining runs and program batch.

    ``programs`` holds colour programs as tuples of colour names, or
    criterion programs as lists of criterion dicts, in the JSON form that
    ``walkmine.criterion.criterion_from_dict`` reads.
    """

    name: str
    schema: list  # [(dimension name, kind)]
    names: list  # vertex names in document order
    features: list  # feature dict per vertex, aligned with ``names``
    edges: list  # (src name, dst name) pairs in document order, no repeats
    source: list
    target: list
    engine: str  # "scp" or "stp"
    max_len: Optional[int] = None  # None: the instance is not mined
    planted: Optional[tuple] = None
    colour_only: bool = True
    programs: list = field(default_factory=list)

    def graph_text(self) -> str:
        doc = {
            "schema": [{"name": n, "kind": k} for n, k in self.schema],
            "vertices": [{"id": n, "features": f} for n, f in zip(self.names, self.features)],
            "edges": [{"src": s, "dst": d} for s, d in self.edges],
        }
        return json.dumps(doc)

    def source_text(self) -> str:
        return "".join(v + "\n" for v in self.source)

    def target_text(self) -> str:
        return "".join(v + "\n" for v in self.target)


# -- shapes ---------------------------------------------------------------------


def _layers(widths):
    layers, start = [], 0
    for w in widths:
        layers.append(list(range(start, start + w)))
        start += w
    return layers


def layered_shape(widths, out_degree, shape_seed):
    """Layered edge set; each vertex draws ``out_degree`` successors with repeats.

    It consumes its random stream as ``walkmine.generate.layered_graph`` does,
    so a shape seed names the same graph in both.
    """
    rng = random.Random(shape_seed)
    layers = _layers(widths)
    edges = set()
    for a, b in zip(layers, layers[1:]):
        for u in a:
            for v in rng.choices(b, k=out_degree):
                edges.add((u, v))
    return layers, sorted(edges)


def _walk(out, start, keep_steps):
    """Endpoint set of a run: keep_steps[i] is the predicate of step i."""
    cur = set(start)
    for keep in keep_steps:
        cur = {u for v in cur for u in out[v] if keep(u)}
    return cur


def _adjacency(n, edges):
    out = [[] for _ in range(n)]
    for s, d in edges:
        out[s].append(d)
    return out


# -- relabelling ------------------------------------------------------------------


def _relabel(rng, features, edges, source, target, blocks):
    """Seeded names and document order for a graph on ids 0..n-1.

    Vertices are shuffled within each block (a layer), and the blocks keep
    their order, so colours first appear in the document in the same order
    for every seed. walkmine numbers colours and orders criterion candidates
    by first appearance; with that order fixed, every seed's mined programs
    are relabelled copies of one another.
    """
    n = len(features)
    names = [f"v{t}" for t in rng.sample(range(10 * n), n)]
    order = []
    for block in blocks:
        block = list(block)
        rng.shuffle(block)
        order.extend(block)
    doc_edges = [(names[s], names[d]) for s, d in edges]
    rng.shuffle(doc_edges)
    return (
        [names[v] for v in order],
        [features[v] for v in order],
        doc_edges,
        sorted(names[v] for v in source),
        sorted(names[v] for v in target),
    )


# -- workloads ----------------------------------------------------------------------

LAYERED_WIDTHS = (12, 13, 14, 15)
LAYERS = 6
PLANTED_LEN = 5
RANDOM_COLOUR_PROGRAMS = 256
FOLLOW_ODDS = 0.75  # odds that a random step keeps its layer's colour


def _colour_program(rng, length):
    """Random colour program as layer-colour indices, mostly following the layers."""
    program = []
    for step in range(1, length + 1):
        if rng.random() < FOLLOW_ODDS:
            program.append(step % 3)
        else:
            program.append(rng.randrange(3))
    return program


def _layered_colour_instance(rng, name, width, engine, max_len):
    """A relabelled layered graph: 6 layers, 3 colours, out-degree 3.

    Layer i has colour i mod 3; the source is the first layer and the target
    is the endpoint set of the planted program, the colours of layers 1..5.
    """
    layers, edges = layered_shape([width] * LAYERS, 3, SHAPE_SEED)
    n = sum(len(layer) for layer in layers)
    colours = rng.sample(PALETTE, 3)
    layer_of = {v: i for i, layer in enumerate(layers) for v in layer}
    features = [{"color": colours[layer_of[v] % 3]} for v in range(n)]
    planted = tuple(colours[i % 3] for i in range(1, PLANTED_LEN + 1))
    out = _adjacency(n, edges)
    target = _walk(out, layers[0], [lambda u, c=c: features[u]["color"] == c for c in planted])
    names, feats, doc_edges, src, tgt = _relabel(rng, features, edges, layers[0], target, layers)
    drawn = random.Random(f"{name}/programs")
    programs = [
        tuple(colours[c] for c in _colour_program(drawn, PLANTED_LEN)) for _ in range(RANDOM_COLOUR_PROGRAMS)
    ]
    return Instance(
        name, [("color", "categorical")], names, feats, doc_edges, src, tgt,
        engine, max_len, planted, True, programs,
    )


def layered_scp(seed: int) -> list:
    rng = random.Random(f"layered-scp/{seed}")
    return [_layered_colour_instance(rng, f"layered-w{w}", w, "scp", PLANTED_LEN) for w in LAYERED_WIDTHS]


FEATURE_WIDTHS = (6, 8)
COLOUR_ONLY_STP_WIDTHS = (7, 8)
FEATURE_VALUES = 3
RANDOM_CRITERION_PROGRAMS = 128


def _atom(f, op, v):
    return {"atom": {"f": f, "op": op, "v": v}}


def _criterion_program(rng, length):
    """Random criterion program as (kind, colour index, dimension, value index) steps.

    Each step is a colour test (kind 0), a threshold ``x <= t`` on one ordered
    feature (kind 1), or both (kind 2); the colour mostly follows the layers.
    """
    steps = []
    for step in range(1, length + 1):
        colour = step % 3 if rng.random() < FOLLOW_ODDS else rng.randrange(3)
        steps.append((rng.randrange(3), colour, rng.randrange(2), rng.randrange(FEATURE_VALUES)))
    return steps


def _criterion_dicts(program, colours, maps):
    """Criterion dicts of a drawn program under one seed's colour names and value maps."""
    out = []
    for kind, colour, dim, value in program:
        colour_atom = _atom("color", "=", colours[colour])
        threshold = _atom(f"x{dim}", "<=", maps[dim][value])
        out.append([colour_atom, threshold, {"all": [colour_atom, threshold]}][kind])
    return out


def _feature_instance(rng, name, width, shape_seed):
    """A relabelled 6-layer graph whose vertices carry a colour and x0, x1.

    The shape (edges, feature values in 0..2, planted thresholds) comes from
    ``shape_seed``; the seed maps each dimension's values through its own
    increasing map. The target is the endpoint set of a planted program of
    five ``x <= t`` steps.
    """
    shape = random.Random(shape_seed)
    widths = [width] * LAYERS
    layers = _layers(widths)
    n = sum(widths)
    raw = [(shape.randrange(FEATURE_VALUES), shape.randrange(FEATURE_VALUES)) for _ in range(n)]
    edges = set()
    for a, b in zip(layers, layers[1:]):
        for u in a:
            for v in shape.choices(b, k=3):
                edges.add((u, v))
    edges = sorted(edges)
    out = _adjacency(n, edges)
    while True:
        plant = [(shape.randrange(2), shape.choice((1, 2))) for _ in range(PLANTED_LEN)]
        target = _walk(out, layers[0], [lambda u, d=d, t=t: raw[u][d] <= t for d, t in plant])
        if target:
            break

    colours = rng.sample(PALETTE, 3)
    maps = [sorted(rng.sample(range(1, 100), FEATURE_VALUES)) for _ in range(2)]
    layer_of = {v: i for i, layer in enumerate(layers) for v in layer}
    features = [
        {"color": colours[layer_of[v] % 3], "x0": maps[0][raw[v][0]], "x1": maps[1][raw[v][1]]}
        for v in range(n)
    ]
    names, feats, doc_edges, src, tgt = _relabel(rng, features, edges, layers[0], target, layers)
    drawn = random.Random(f"{name}/programs")
    programs = [
        _criterion_dicts(_criterion_program(drawn, PLANTED_LEN), colours, maps)
        for _ in range(RANDOM_CRITERION_PROGRAMS)
    ]
    planted = tuple(_atom(f"x{d}", "<=", maps[d][t]) for d, t in plant)
    schema = [("color", "categorical"), ("x0", "ordered"), ("x1", "ordered")]
    return Instance(name, schema, names, feats, doc_edges, src, tgt, "stp", PLANTED_LEN, planted, False, programs)


def features_stp(seed: int) -> list:
    rng = random.Random(f"features-stp/{seed}")
    out = []
    for w in COLOUR_ONLY_STP_WIDTHS:
        inst = _layered_colour_instance(rng, f"colour-w{w}", w, "stp", PLANTED_LEN)
        inst.planted = tuple(_atom("color", "=", c) for c in inst.planted)
        inst.programs = [
            [_atom("color", "=", c) for c in p] for p in inst.programs[:RANDOM_CRITERION_PROGRAMS]
        ]
        out.append(inst)
    for i, w in enumerate(FEATURE_WIDTHS):
        out.append(_feature_instance(rng, f"features-w{w}", w, SHAPE_SEED + i))
    return out


SPARSE_N = 5000
SPARSE_DEGREE = 4
SPARSE_COLOURS = 8
SPARSE_SOURCES = 3
SPARSE_PLANTED = 3
SPARSE_MAX_LEN = 4
BIG_LAYERS = 21
BIG_WIDTH = 1000
BIG_DEGREE = 6
BIG_COLOURS = 4


def _sparse_instance(rng):
    """Random graph above walkmine's dense limit, target planted by 3 colours.

    The shape (edges, colour classes, sources, planted program) comes from a
    fixed shape seed, since the set of lengths at which the target is
    reachable, and with it the number of mining levels that run, changes from
    one random shape to the next.
    """
    shape = random.Random(SHAPE_SEED)
    n = SPARSE_N
    colour_of = [shape.randrange(SPARSE_COLOURS) for _ in range(n)]
    edges = []
    for u in range(n):
        succ = set()
        while len(succ) < SPARSE_DEGREE:
            v = shape.randrange(n)
            if v != u:
                succ.add(v)
        edges.extend((u, v) for v in sorted(succ))
    out = _adjacency(n, edges)
    source = shape.sample(range(n), SPARSE_SOURCES)
    cur, planted = set(source), []
    for _ in range(SPARSE_PLANTED):
        image = {u for v in cur for u in out[v]}
        c = shape.choice(sorted({colour_of[u] for u in image}))
        cur = {u for u in image if colour_of[u] == c}
        planted.append(c)
    colours = rng.sample(PALETTE, SPARSE_COLOURS)
    features = [{"color": colours[c]} for c in colour_of]
    names, feats, doc_edges, src, tgt = _relabel(rng, features, edges, source, cur, [range(n)])
    return Instance(
        "sparse-n5000", [("color", "categorical")], names, feats, doc_edges, src, tgt,
        "scp", SPARSE_MAX_LEN, tuple(colours[c] for c in planted), True, [],
    )


def _big_layered_instance(rng):
    """The 21 x 1,000 layered graph (out-degree 6, 4 layer colours, >= 100k edges).

    It is walked, not mined: the batch runs the layer-colour programs of
    lengths 10 and 20, and copies of each that halt at their last step.
    """
    widths = [BIG_WIDTH] * BIG_LAYERS
    layers, edges = layered_shape(widths, BIG_DEGREE, rng.randrange(2**32))
    colours = [f"shade{i}" for i in range(BIG_COLOURS)]
    features = []
    for i, layer in enumerate(layers):
        features.extend({"color": colours[i % BIG_COLOURS]} for _ in layer)
    names = [f"L{i}_{j}" for i, layer in enumerate(layers) for j in range(len(layer))]
    doc_edges = [(names[s], names[d]) for s, d in edges]

    def aligned(length):
        return tuple(colours[i % BIG_COLOURS] for i in range(1, length + 1))

    def halting(length):
        p = list(aligned(length))
        p[-1] = colours[(length + 1) % BIG_COLOURS]
        return tuple(p)

    out = _adjacency(len(names), edges)
    p10 = aligned(10)
    target = _walk(out, layers[0], [lambda u, c=c: features[u]["color"] == c for c in p10])
    return Instance(
        "layered-21x1000", [("color", "categorical")], names, features, doc_edges,
        [names[v] for v in layers[0]], sorted(names[v] for v in target),
        "scp", None, p10, True, [aligned(10), aligned(20), halting(10), halting(20)],
    )


def large_graph(seed: int) -> list:
    rng = random.Random(f"large-graph/{seed}")
    return [_sparse_instance(rng), _big_layered_instance(rng)]


WORKLOADS = {
    "layered-scp": layered_scp,
    "features-stp": features_stp,
    "large-graph": large_graph,
}
