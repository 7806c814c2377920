"""Criterion synthesis that rebuilds each tree node's candidate splits.

:func:`compute_criterion` grows the same Gini decision tree as
:func:`walkmine.criterion.compute_criterion`, but rebuilds every node's
candidate splits from its members: their value sets, sorted per node, and
lazily built point masks per candidate atom. The tests check the package's
synthesis against it, criterion for criterion. The package does not ship it.
"""

from __future__ import annotations

from walkmine.bitset import iter_bits, mask_of
from walkmine.criterion import AllOf, AnyOf, Atom, Criterion, InseparableError, _atom_mask
from walkmine.graph import ORDERED, FeatureSchema


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
    b_mask = mask_of(i for i, label in enumerate(points.values()) if label == 1)
    e_mask = mask_of(i for i, label in enumerate(points.values()) if label == -1)
    # per-dimension non-missing values, in first-appearance order
    values = [list(dict.fromkeys(v[d] for v in vecs if v[d] is not None)) for d in range(width)]

    def candidates(node):
        """Candidate atoms for a node's split, as (dim, op, value) keys."""
        members = [vecs[i] for i in iter_bits(node)]
        for d in range(width):
            seen = {vec[d] for vec in members}
            if schema.kind_of(d) == ORDERED:
                for v in sorted(x for x in seen if x is not None):
                    yield d, "<=", v
            else:
                for v in values[d]:
                    if v in seen:
                        yield d, "=", v
                if None in seen:
                    yield d, "=", None

    def complement(atom: Atom) -> Criterion:
        d = atom.dim
        if atom.op == "<=":
            return AnyOf((Atom(d, ">", atom.value), Atom(d, "=", None)))
        return AnyOf(tuple(Atom(d, "=", v) for v in values[d] + [None] if v != atom.value))

    paths: list[list] = []
    point_masks: dict = {}  # atom key -> mask of the points satisfying it

    def grow(node, path):
        pos, neg = (node & b_mask).bit_count(), (node & e_mask).bit_count()
        if node & ~b_mask == 0:
            paths.append(path)
            return
        if pos == 0:
            return
        # A split's Gini gain is parent - 1 + S/total, where
        # S = (tp²+tn²)/(tp+tn) + (fp²+fn²)/(fp+fn) and an empty side adds 0,
        # so the largest S wins; compare S = num/den by cross-multiplying.
        # The strict > keeps the first candidate on a tie.
        best = None
        for key in candidates(node):
            mask = point_masks.get(key)
            if mask is None:
                mask = point_masks[key] = _atom_mask(vecs, *key)
            true_side = node & mask
            if true_side == 0 or true_side == node:
                continue
            tp, tn = (true_side & b_mask).bit_count(), (true_side & e_mask).bit_count()
            fp, fn = pos - tp, neg - tn
            a, c = (tp + tn) or 1, (fp + fn) or 1
            num, den = (tp * tp + tn * tn) * c + (fp * fp + fn * fn) * a, a * c
            if best is None or num * best[1] > best[0] * den:
                best = (num, den, key, true_side)
        _, _, key, true_side = best
        atom = Atom(*key)
        grow(true_side, path + [atom])
        grow(node & ~true_side, path + [complement(atom)])

    grow((1 << len(vecs)) - 1, [])
    if paths == [[]]:
        # every point is a B point: pin down the B vectors exactly
        paths = [[Atom(d, "=", vec[d]) for d in range(width)] for vec in vecs]
    clauses = [path[0] if len(path) == 1 else AllOf(tuple(path)) for path in paths]
    return clauses[0] if len(clauses) == 1 else AnyOf(tuple(clauses))
