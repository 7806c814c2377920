"""Reference checker for the benchmark, written apart from walkmine.

It walks adjacency lists built from a generator's own edge list (or a graph
document read with ``json``), evaluates criterion dicts, classifies programs
and enumerates every colour program of a length by brute force. Vertex sets
are frozensets of vertex names, so results compare with walkmine's directly
by name.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

_ORDER = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


class Verdict(NamedTuple):
    kind: str
    halt_step: object  # int or None
    partial_halt_steps: tuple
    trace: tuple  # frozensets of vertex names, E0..En


class RefGraph:
    """Adjacency lists over vertex names and their feature dicts."""

    def __init__(self, names, features, edges):
        self.names = list(names)
        self.features = dict(zip(self.names, features))
        self.out = {v: set() for v in self.names}
        for s, d in edges:
            self.out[s].add(d)
        self._classes: dict = {}

    @classmethod
    def from_document(cls, doc: dict) -> "RefGraph":
        names = [v["id"] for v in doc["vertices"]]
        features = [v.get("features") or {} for v in doc["vertices"]]
        edges = [(e["src"], e["dst"]) for e in doc["edges"]]
        return cls(names, features, edges)

    def colours(self) -> list:
        return sorted({f["color"] for f in self.features.values() if f.get("color") is not None})

    def colour_class(self, colour) -> frozenset:
        if colour not in self._classes:
            self._classes[colour] = frozenset(v for v, f in self.features.items() if f.get("color") == colour)
        return self._classes[colour]

    def criterion_class(self, crit: dict) -> frozenset:
        return frozenset(v for v, f in self.features.items() if evaluate(crit, f))

    def image(self, vertices) -> set:
        out = set()
        for v in vertices:
            out |= self.out[v]
        return out


def evaluate(crit: dict, features: dict) -> bool:
    """Does a feature dict satisfy a criterion dict?

    A missing value equals only ``None`` and fails every order comparison.
    """
    if "atom" in crit:
        atom = crit["atom"]
        x = features.get(atom["f"])
        if atom["op"] == "=":
            return x == atom["v"]
        return x is not None and _ORDER[atom["op"]](x, atom["v"])
    if "all" in crit:
        return all(evaluate(c, features) for c in crit["all"])
    if "any" in crit:
        return any(evaluate(c, features) for c in crit["any"])
    raise ValueError(f"not a criterion: {crit!r}")


def keep_sets(g: RefGraph, program) -> list:
    """Per-step sets of vertices a program keeps: colour names or criterion dicts."""
    return [g.criterion_class(step) if isinstance(step, dict) else g.colour_class(step) for step in program]


def classify(g: RefGraph, source, target, keeps) -> Verdict:
    """Kind, halting step, partial-halting steps and trace of one run.

    Step i halts partially when some vertex of E_i has no successor it keeps;
    the run halts at the first empty E_i (i >= 1).
    """
    trace = [frozenset(source)]
    for keep in keeps:
        trace.append(frozenset(g.image(trace[-1]) & keep))
    partial = tuple(
        i for i, keep in enumerate(keeps) if any(not (g.out[v] & keep) for v in trace[i])
    )
    halt = next((i for i in range(1, len(trace)) if not trace[i]), None)
    final, target = trace[-1], frozenset(target)
    if halt is not None:
        kind = "complete_halt"
    elif final == target:
        kind = "exact"
    elif final <= target:
        kind = "feasible"
    else:
        kind = "infeasible"
    return Verdict(kind, halt, partial, tuple(trace))


def colour_programs(g: RefGraph, source, target, length: int):
    """Every exact and every feasible colour program of one length.

    Returns two dicts mapping a program (tuple of colour names) to its trace.
    The search extends prefixes and drops a prefix once its endpoint set is
    empty, since every extension of it halts.
    """
    classes = {c: g.colour_class(c) for c in g.colours()}
    target = frozenset(target)
    exact, feasible = {}, {}

    def extend(trace, prefix):
        cur = trace[-1]
        if len(prefix) == length:
            if cur == target:
                exact[prefix] = trace
            if cur <= target:
                feasible[prefix] = trace
            return
        image = g.image(cur)
        for c, members in classes.items():
            nxt = members.intersection(image)
            if nxt:
                extend(trace + (nxt,), prefix + (c,))

    extend((frozenset(source),), ())
    return exact, feasible
