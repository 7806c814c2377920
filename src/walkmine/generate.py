"""Seeded random instance generation for testing and benchmarking."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .bitset import VertexSet
from .graph import CATEGORICAL, ORDERED, Dimension, DirectedGraph, FeatureSchema
from .graphio import serialize_graph, serialize_vertex_set

_COLOR_POOL = ("blue", "red", "green", "yellow", "purple", "brown", "orange", "pink")


@dataclass
class Instance:
    graph: DirectedGraph
    source: VertexSet
    target: VertexSet
    meta: dict = field(default_factory=dict)


def _random_edges(rng: random.Random, n: int, layered: bool) -> list[tuple[int, int]]:
    edges = []
    if layered:
        cuts = sorted(rng.sample(range(1, n), k=min(rng.randint(1, 3), n - 1)))
        layers = []
        prev = 0
        for cut in cuts + [n]:
            layers.append(list(range(prev, cut)))
            prev = cut
        for a, b in zip(layers, layers[1:]):
            for u in a:
                for v in b:
                    if rng.random() < 0.55:
                        edges.append((u, v))
    else:
        density = rng.uniform(0.12, 0.3)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < density:
                    edges.append((u, v))
    return edges


def random_instance(
    seed: int,
    max_vertices: int = 12,
    max_colors: int = 4,
    extra_dims: int = 0,
    singleton_target: bool = False,
) -> Instance:
    """A random graph with source/target sets planted on a walkable route.

    The target is the endpoint set of a random colour program simulated from
    the source (or of a single random walk when ``singleton_target``), so
    instances usually admit at least one exact program. Deterministic in
    ``seed``.
    """
    for name, value, least in (("max_vertices", max_vertices, 4), ("max_colors", max_colors, 2),
                               ("extra_dims", extra_dims, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    rng = random.Random(seed)
    n = rng.randint(4, max_vertices)
    k = rng.randint(2, min(max_colors, len(_COLOR_POOL)))
    layered = rng.random() < 0.5
    edges = _random_edges(rng, n, layered)

    dims = [Dimension("color", CATEGORICAL)]
    for i in range(extra_dims):
        dims.append(Dimension(f"x{i}", ORDERED))
    schema = FeatureSchema(dims)
    names = [f"v{i}" for i in range(n)]
    rows = []
    for _ in range(n):
        row = [_COLOR_POOL[rng.randrange(k)]]
        for _ in range(extra_dims):
            row.append(None if rng.random() < 0.2 else rng.randint(0, 9))
        rows.append(row)
    g = DirectedGraph(schema, names, rows, edges)

    source_ids = sorted(rng.sample(range(n), k=rng.randint(1, min(3, n))))
    source = VertexSet.from_ids(n, source_ids)
    walk_len = rng.randint(1, 4)

    if singleton_target:
        v = rng.choice(source_ids)
        steps = 0
        for _ in range(walk_len):
            succ = [u for u in VertexSet(n, g.out_mask(v)) if g.color_of(u) >= 0]
            if not succ:
                break
            v = rng.choice(succ)
            steps += 1
        target = VertexSet.single(n, v)
        planted = steps
    else:
        cur = source.mask
        planted = 0
        for _ in range(walk_len):
            image = g.out_image(cur)
            present = g.colors_in(image)
            if not present:
                break
            cur = image & g.color_mask(rng.choice(present))
            planted += 1
        target = VertexSet(n, cur)
    if not target:
        target = source
        planted = 0
    meta = {
        "seed": seed,
        "vertices": n,
        "colors": k,
        "layered": layered,
        "planted_length": planted,
    }
    return Instance(g, source, target, meta)


def layered_graph(widths: list[int], colors: list[str], out_degree: int, seed: int) -> DirectedGraph:
    """A layered digraph with per-layer colours, for scaling runs.

    Layer i vertices each get ``out_degree`` random successors in layer i+1;
    the colour of a layer is ``colors[i % len(colors)]``.
    """
    rng = random.Random(seed)
    schema = FeatureSchema([Dimension("color", CATEGORICAL)])
    names = []
    rows = []
    layers: list[list[int]] = []
    for i, width in enumerate(widths):
        layer = []
        for j in range(width):
            layer.append(len(names))
            names.append(f"L{i}_{j}")
            rows.append((colors[i % len(colors)],))
        layers.append(layer)
    edges = set()
    for a, b in zip(layers, layers[1:]):
        for u in a:
            for v in rng.choices(b, k=out_degree):
                edges.add((u, v))
    return DirectedGraph(schema, names, rows, sorted(edges))


def write_instance(instance: Instance, directory, name: str) -> list[Path]:
    """Re-emit an instance as standalone fixture files; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for suffix, text in (
        (".graph.json", serialize_graph(instance.graph)),
        (".source", serialize_vertex_set(instance.source, instance.graph)),
        (".target", serialize_vertex_set(instance.target, instance.graph)),
    ):
        path = directory / f"{name}{suffix}"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
