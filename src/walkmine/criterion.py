"""Feature criteria: satisfaction algebra and decision-tree synthesis.

A criterion is an atom ``(dimension, op, value)`` or a boolean combination
of criteria. Criteria are immutable tuple values: an ``Atom`` is the tuple
``(dim, op, value)`` and ``AllOf``/``AnyOf`` the tuple ``(tag, items)`` with
tag ``"all"``/``"any"``, so they hash and compare as tuples do, in C, and
copy and pickle through their validating constructors. Missing values fail
every order comparison; ``= Missing`` is the explicit presence test.
``compute_criterion`` builds a criterion that accepts a set of feature
vectors B and rejects a set E by growing a binary decision tree, its
candidate splits point masks built once per call, and reading off the
B-leaf paths. A criterion program (``TosetProgram``) is the tuple
of its step criteria, one per step, and hashes and compares as that tuple.
"""

from __future__ import annotations

import json
import operator
from functools import cache, reduce
from typing import Sequence, Union

from .bitset import mask_of
from .graph import ORDERED, DirectedGraph, FeatureSchema, _bad_value, _classes

OPS = ("<", "<=", "=", ">=", ">")
_ORDER = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


class Atom(tuple):
    """The atom ``(dim, op, value)``: a feature dimension compared to a value."""

    __slots__ = ()

    def __new__(cls, dim: int, op: str, value: object = None):
        if op not in OPS:
            raise ValueError(f"unknown operator {op!r}")
        if op != "=" and value is None:
            raise ValueError("order comparisons cannot use a missing threshold")
        # a float dim would equal and hash as the int one, and so be handed
        # that atom's cached mask and key; a numpy int or a bool becomes the int
        return tuple.__new__(cls, (operator.index(dim), op, value))

    dim = property(operator.itemgetter(0))
    op = property(operator.itemgetter(1))
    value = property(operator.itemgetter(2))

    def __reduce__(self):
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return f"Atom(dim={self[0]!r}, op={self[1]!r}, value={self[2]!r})"


class _Junction(tuple):
    """``(tag, items)``: a nonempty tuple of criteria joined by the subclass's ``_tag``."""

    __slots__ = ()

    def __new__(cls, items):
        items = tuple(items)
        if not items:
            raise ValueError(f"empty {cls._noun}")
        # the graph's caches match junctions by value, so items must be criteria
        for item in items:
            if not isinstance(item, (Atom, _Junction)):
                raise TypeError(f"not a criterion: {item!r}")
        return tuple.__new__(cls, (cls._tag, items))

    items = property(operator.itemgetter(1))

    def __reduce__(self):
        return type(self), (self[1],)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(items={self[1]!r})"


class AllOf(_Junction):
    __slots__ = ()
    _tag, _noun = "all", "conjunction"


class AnyOf(_Junction):
    __slots__ = ()
    _tag, _noun = "any", "disjunction"


Criterion = Union[Atom, AllOf, AnyOf]


def _atom_mask(rows: Sequence[Sequence], d: int, op: str, value) -> int:
    """Mask of the indices of ``rows`` whose vectors satisfy the atom (d, op, value)."""
    if op == "=":
        return mask_of(i for i, row in enumerate(rows) if row[d] == value)
    cmp = _ORDER[op]
    return mask_of(i for i, row in enumerate(rows) if row[d] is not None and cmp(row[d], value))


def criterion_mask(g: DirectedGraph, crit: Criterion) -> int:
    """Mask of the vertices of ``g`` whose feature vectors satisfy ``crit``.

    Every criterion is evaluated once per graph and its mask cached on the
    graph: an atom in one pass over ``g.rows``, a conjunction or disjunction
    by folding its items' masks, each read through this cache, with ``&``
    or ``|``. A failed evaluation caches nothing.
    """
    if not isinstance(crit, (Atom, _Junction)):
        raise TypeError(f"not a criterion: {crit!r}")
    mask = g._criterion_masks.get(crit)
    if mask is None:
        if isinstance(crit, Atom):
            if not 0 <= crit.dim < len(g.schema):
                raise ValueError(f"criterion references dimension {crit.dim} outside the schema")
            mask = _atom_mask(g.rows, *crit)
        else:
            fold = operator.and_ if isinstance(crit, AllOf) else operator.or_
            mask = reduce(fold, (criterion_mask(g, item) for item in crit.items))
        g._criterion_masks[crit] = mask
    return mask


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
    nb = len(points)
    for vec in e_vectors:
        t = tuple(vec)
        if points.get(t) == 1:
            raise InseparableError(t, t)
        points.setdefault(t, -1)
    ne = len(points)
    for vec in m_vectors:
        points.setdefault(tuple(vec), 0)
    for t in points:
        if len(t) != width:
            raise ValueError("vector width differs from schema")

    vecs = list(points)
    b_mask, e_mask = (1 << nb) - 1, (1 << ne) - (1 << nb)  # B points come first, then E, then M

    # Candidate splits, built once as (side, dim, op, value, group). Points
    # group by value (==) in first-appearance order. An ordered dimension
    # splits at "<=" each value in sorted order, ``side`` the union of the
    # groups so far, spelt as the node's first member in ``group`` spells it
    # (1 or 1.0); a categorical one at "=" each value, then "= None". A value
    # absent from a node gives it an empty side or an earlier candidate's,
    # which the strict > never takes, so a node tests each with one AND.
    splits = []
    values = []  # per dimension, the present values in first-appearance order
    for d in range(width):
        groups: dict = {}
        for i, vec in enumerate(vecs):
            groups[vec[d]] = groups.get(vec[d], 0) | 1 << i
        missing = groups.pop(None, 0)
        values.append(list(groups))
        if schema.kind_of(d) == ORDERED:
            side = 0
            for v in sorted(groups):
                side |= groups[v]
                splits.append((side, d, "<=", v, groups[v]))
        else:
            splits += [(mask, d, "=", v, mask) for v, mask in groups.items()]
            if missing:
                splits.append((missing, d, "=", None, missing))

    paths: list[list] = []

    def grow(node, path):
        if node & ~b_mask == 0:
            paths.append(path)
            return
        pos, neg = (node & b_mask).bit_count(), (node & e_mask).bit_count()
        # A split's Gini gain is parent - 1 + S/total, where
        # S = (tp²+tn²)/(tp+tn) + (fp²+fn²)/(fp+fn) and an empty side adds 0,
        # so the largest S wins; compare S = num/den by cross-multiplying.
        # The strict > keeps the first candidate on a tie.
        best_num, best_den = -1, 1
        for split in splits:
            side = node & split[0]
            if side and side != node:
                tp, tn = (side & b_mask).bit_count(), (side & e_mask).bit_count()
                fp, fn = pos - tp, neg - tn
                a, c = (tp + tn) or 1, (fp + fn) or 1
                num, den = (tp * tp + tn * tn) * c + (fp * fp + fn * fn) * a, a * c
                if num * best_den > best_num * den:
                    best_num, best_den, best, true_side = num, den, split, side
        _, d, op, value, group = best
        if op == "<=":
            first = node & group
            value = vecs[(first & -first).bit_length() - 1][d]
        if true_side & b_mask:
            grow(true_side, path + [Atom(d, op, value)])
        if node & ~true_side & b_mask:
            if op == "<=":
                other = AnyOf((Atom(d, ">", value), Atom(d, "=", None)))
            else:
                other = AnyOf(tuple(Atom(d, "=", v) for v in values[d] + [None] if v != value))
            grow(node & ~true_side, path + [other])

    grow((1 << len(vecs)) - 1, [])
    if paths == [[]]:
        # every point is a B point: pin down the B vectors exactly
        paths = [[Atom(d, "=", vec[d]) for d in range(width)] for vec in vecs]
    clauses = [path[0] if len(path) == 1 else AllOf(tuple(path)) for path in paths]
    return clauses[0] if len(clauses) == 1 else AnyOf(tuple(clauses))


def criterion_memo(g: DirectedGraph):
    """``step(B, M, E)``: the criterion separating the vertex masks B and E of ``g``.

    ``step`` returns ``None`` when B and E share a feature vector. Synthesis
    reads a side only through its distinct rows in vertex order, so a side's
    key is the classes of rows meeting it, by first member there. Rows group
    by spelling (``repr``), not by ``==``, which merges ``1`` with ``1.0`` and
    ``0.0`` with ``-0.0``. Each distinct key triple is synthesised once per
    ``step``, one per mining run; the classes depend on the graph alone, so
    the first call of any ``step`` groups them and keeps them on the graph.
    """
    classes = None

    def key(mask: int) -> tuple:
        """The ids of the classes meeting ``mask``: one hop per class."""
        of, masks = classes.of, classes.masks
        out = []
        while mask:
            c = of[(mask & -mask).bit_length() - 1]
            out.append(c)
            mask &= ~masks[c]
        return tuple(out)

    @cache
    def synthesise(b: tuple, m: tuple, e: tuple):
        keys = classes.keys  # (spelling, row) of each class
        try:
            return compute_criterion(*([keys[c][1] for c in side] for side in (b, m, e)), g.schema)
        except InseparableError:
            return None

    def step(B: int, M: int, E: int):
        nonlocal classes
        if classes is None:
            if g._spellings is None:
                g._spellings = _classes([(repr(row), row) for row in g.rows])
            classes = g._spellings
        return synthesise(key(B), key(M), key(E))

    return step


# -- serialization ------------------------------------------------------------


def criterion_to_dict(crit: Criterion, schema: FeatureSchema) -> dict:
    if isinstance(crit, Atom):
        if not 0 <= crit.dim < len(schema):  # a negative dim would name a dimension from the end
            raise ValueError(f"criterion references dimension {crit.dim} outside the schema")
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
    if not isinstance(raw["f"], str):
        raise ValueError(f"feature name must be a string, not {raw['f']!r}")
    if not schema.has(raw["f"]):
        raise ValueError(f"unknown feature {raw['f']!r}")
    dim = schema.index(raw["f"])
    op, value = raw["op"], raw["v"]
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}")
    if op != "=" and schema.kind_of(dim) != ORDERED:
        raise ValueError(f"order comparison on categorical feature {raw['f']!r}")
    if problem := _bad_value(schema.kind_of(dim), value):
        raise ValueError(f"feature {raw['f']!r}: {problem}")
    return Atom(dim, op, value)


def criterion_key(crit: Criterion, schema: FeatureSchema) -> str:
    """Canonical string form, used to order and deduplicate programs."""
    return json.dumps(criterion_to_dict(crit, schema), sort_keys=True, separators=(",", ":"))


class TosetProgram(tuple):
    """A criterion program: the tuple of its step criteria, one per step."""

    __slots__ = ()

    def __new__(cls, steps=()):
        return tuple.__new__(cls, steps)

    steps = property(tuple)

    def __repr__(self) -> str:
        return f"TosetProgram(steps={tuple(self)!r})"

    def to_dict(self, g) -> list:
        return [criterion_to_dict(c, g.schema) for c in self]

    def key(self, g) -> tuple[str, ...]:
        keys = g._criterion_keys
        out = []
        for c in self:
            # a plain tuple equal to a cached criterion is still no criterion
            key = keys.get(c) if isinstance(c, (Atom, _Junction)) else None
            if key is None:
                key = keys[c] = criterion_key(c, g.schema)
            out.append(key)
        return tuple(out)
