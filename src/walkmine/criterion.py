"""Feature criteria: satisfaction algebra and decision-tree synthesis.

A criterion is an atom ``(dimension, op, value)`` or a boolean combination
of criteria. Missing values fail every order comparison; ``= Missing`` is
the explicit presence test. ``compute_criterion`` builds a criterion that
accepts a set of feature vectors B and rejects a set E by growing a binary
decision tree and reading off the B-leaf paths. A criterion program
(``TosetProgram``) is one criterion per step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

from .graph import CATEGORICAL, ORDERED, FeatureSchema

OPS = ("<", "<=", "=", ">=", ">")


@dataclass(frozen=True)
class Atom:
    dim: int
    op: str
    value: object = None

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown operator {self.op!r}")
        if self.op != "=" and self.value is None:
            raise ValueError("order comparisons cannot use a missing threshold")


@dataclass(frozen=True)
class AllOf:
    items: tuple

    def __post_init__(self):
        if not self.items:
            raise ValueError("empty conjunction")


@dataclass(frozen=True)
class AnyOf:
    items: tuple

    def __post_init__(self):
        if not self.items:
            raise ValueError("empty disjunction")


Criterion = Union[Atom, AllOf, AnyOf]


def satisfies(vector: Sequence, crit: Criterion) -> bool:
    """Does a feature vector satisfy a criterion?"""
    if isinstance(crit, Atom):
        if not 0 <= crit.dim < len(vector):
            raise ValueError(f"criterion references dimension {crit.dim} outside the schema")
        x = vector[crit.dim]
        if crit.op == "=":
            return x == crit.value
        if x is None:
            return False
        if crit.op == "<":
            return x < crit.value
        if crit.op == "<=":
            return x <= crit.value
        if crit.op == ">=":
            return x >= crit.value
        return x > crit.value
    if isinstance(crit, AllOf):
        return all(satisfies(vector, item) for item in crit.items)
    if isinstance(crit, AnyOf):
        return any(satisfies(vector, item) for item in crit.items)
    raise TypeError(f"not a criterion: {crit!r}")


class InseparableError(ValueError):
    """B and E share a feature vector, so no criterion can split them."""

    def __init__(self, witness_b, witness_e):
        self.witness = (witness_b, witness_e)
        super().__init__(f"inseparable: vector {witness_b!r} appears on both sides")


def compute_criterion(b_vectors, m_vectors, e_vectors, schema: FeatureSchema) -> Criterion:
    """A criterion satisfied by every vector of B and none of E.

    Vectors of M (the allowed middle ground) are unconstrained in the
    contract, but the tree keeps splitting until its B-leaves contain B
    vectors only, so on the given vectors the criterion selects exactly the
    B vectors. Raises :class:`InseparableError` when B and E collide.
    """
    width = len(schema)
    if width == 0:
        raise ValueError("schema has no dimensions")
    points: dict[tuple, int] = {}
    for vec in b_vectors:
        points.setdefault(tuple(vec), 1)
    if not points:
        raise ValueError("B must be nonempty")
    for vec in e_vectors:
        t = tuple(vec)
        if points.get(t) == 1:
            raise InseparableError(t, t)
        points.setdefault(t, -1)
    for vec in m_vectors:
        points.setdefault(tuple(vec), 0)
    for t in points:
        if len(t) != width:
            raise ValueError("vector width differs from schema")

    vecs = list(points)
    labels = list(points.values())
    # per-dimension non-missing values, in first-appearance order
    values = [list(dict.fromkeys(v[d] for v in vecs if v[d] is not None)) for d in range(width)]

    def candidates(idxs):
        for d in range(width):
            seen = {vecs[i][d] for i in idxs}
            if schema.kind_of(d) == ORDERED:
                for v in sorted(x for x in seen if x is not None):
                    yield Atom(d, "<=", v)
            else:
                for v in values[d]:
                    if v in seen:
                        yield Atom(d, "=", v)
            if None in seen:
                yield Atom(d, "=", None)

    def complement(atom: Atom) -> Criterion:
        d = atom.dim
        if atom.op == "<=":
            return AnyOf((Atom(d, ">", atom.value), Atom(d, "=", None)))
        if atom.value is None:
            if schema.kind_of(d) == ORDERED:
                return Atom(d, "<=", max(values[d]))
            return AnyOf(tuple(Atom(d, "=", v) for v in values[d]))
        items = [Atom(d, "=", v) for v in values[d] if v != atom.value]
        items.append(Atom(d, "=", None))
        return AnyOf(tuple(items))

    paths: list[list] = []

    def grow(idxs, path):
        node = [labels[i] for i in idxs]
        pos, neg = node.count(1), node.count(-1)
        if pos == len(idxs):
            paths.append(path)
            return
        if pos == 0:
            return
        # A split's Gini gain is parent - 1 + S/total, where
        # S = (tp²+tn²)/(tp+tn) + (fp²+fn²)/(fp+fn) and an empty side adds 0,
        # so the largest S wins; compare S = num/den by cross-multiplying.
        # The strict > keeps the first candidate on a tie.
        best = None
        for atom in candidates(idxs):
            true_side, false_side = [], []
            for i in idxs:
                (true_side if satisfies(vecs[i], atom) else false_side).append(i)
            if not true_side or not false_side:
                continue
            side = [labels[i] for i in true_side]
            tp, tn = side.count(1), side.count(-1)
            fp, fn = pos - tp, neg - tn
            a, c = (tp + tn) or 1, (fp + fn) or 1
            num, den = (tp * tp + tn * tn) * c + (fp * fp + fn * fn) * a, a * c
            if best is None or num * best[1] > best[0] * den:
                best = (num, den, atom, true_side, false_side)
        _, _, atom, true_side, false_side = best
        grow(true_side, path + [atom])
        grow(false_side, path + [complement(atom)])

    grow(list(range(len(vecs))), [])
    if paths == [[]]:
        # every point is a B point: pin down the B vectors exactly
        disjuncts = []
        for vec, label in points.items():
            if label == 1:
                atoms = tuple(Atom(d, "=", vec[d]) for d in range(width))
                disjuncts.append(atoms[0] if len(atoms) == 1 else AllOf(atoms))
        return disjuncts[0] if len(disjuncts) == 1 else AnyOf(tuple(disjuncts))
    clauses = []
    for path in paths:
        clauses.append(path[0] if len(path) == 1 else AllOf(tuple(path)))
    return clauses[0] if len(clauses) == 1 else AnyOf(tuple(clauses))


# -- serialization ------------------------------------------------------------


def criterion_to_dict(crit: Criterion, schema: FeatureSchema) -> dict:
    if isinstance(crit, Atom):
        return {"atom": {"f": schema.dims[crit.dim].name, "op": crit.op, "v": crit.value}}
    if isinstance(crit, AllOf):
        return {"all": [criterion_to_dict(item, schema) for item in crit.items]}
    if isinstance(crit, AnyOf):
        return {"any": [criterion_to_dict(item, schema) for item in crit.items]}
    raise TypeError(f"not a criterion: {crit!r}")


def criterion_from_dict(doc, schema: FeatureSchema) -> Criterion:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValueError(f"malformed criterion: {doc!r}")
    if "all" in doc or "any" in doc:
        key = "all" if "all" in doc else "any"
        items = doc[key]
        if not isinstance(items, list) or not items:
            raise ValueError(f"{key!r} needs a nonempty list")
        parsed = tuple(criterion_from_dict(item, schema) for item in items)
        return AllOf(parsed) if key == "all" else AnyOf(parsed)
    if "atom" not in doc:
        raise ValueError(f"malformed criterion: {doc!r}")
    raw = doc["atom"]
    if not isinstance(raw, dict) or set(raw) != {"f", "op", "v"}:
        raise ValueError("atom needs exactly the keys f, op, v")
    if not schema.has(raw["f"]):
        raise ValueError(f"unknown feature {raw['f']!r}")
    dim = schema.index(raw["f"])
    op, value = raw["op"], raw["v"]
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}")
    if op != "=" and schema.kind_of(dim) != ORDERED:
        raise ValueError(f"order comparison on categorical feature {raw['f']!r}")
    if value is not None:
        kind = schema.kind_of(dim)
        if kind == ORDERED and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValueError(f"feature {raw['f']!r} needs a numeric value")
        if kind == CATEGORICAL and not isinstance(value, str):
            raise ValueError(f"feature {raw['f']!r} needs a string value")
    return Atom(dim, op, value)


def criterion_key(crit: Criterion, schema: FeatureSchema) -> str:
    """Canonical string form, used to order and deduplicate programs."""
    return json.dumps(criterion_to_dict(crit, schema), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TosetProgram:
    """A criterion program: one criterion per step."""

    steps: tuple

    def __len__(self) -> int:
        return len(self.steps)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # states hash their program on every lookup; criterion trees rehash fully
        return hash(self.steps)

    def to_dict(self, g) -> list:
        return [criterion_to_dict(c, g.schema) for c in self.steps]

    def key(self, g) -> tuple[str, ...]:
        return tuple(criterion_key(c, g.schema) for c in self.steps)

