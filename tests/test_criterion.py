import hashlib
import random

import pytest

from walkmine.criterion import (
    AllOf,
    AnyOf,
    Atom,
    InseparableError,
    compute_criterion,
    criterion_from_dict,
    criterion_key,
    criterion_to_dict,
    satisfies,
)
from walkmine.graph import CATEGORICAL, ORDERED, Dimension, FeatureSchema

CN = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("n", ORDERED)))
N1 = FeatureSchema((Dimension("n", ORDERED),))


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom(0, "!=", 1)
    with pytest.raises(ValueError):
        Atom(0, "<", None)
    Atom(0, "=", None)  # presence test is fine


def test_boolean_nodes_must_be_nonempty():
    with pytest.raises(ValueError):
        AllOf(())
    with pytest.raises(ValueError):
        AnyOf(())


def test_satisfies_order_and_equality():
    assert satisfies((3,), Atom(0, "<=", 5))
    assert not satisfies((7,), Atom(0, "<", 5))
    assert satisfies((5,), Atom(0, ">=", 5))
    assert satisfies(("red",), Atom(0, "=", "red"))
    assert not satisfies(("red",), Atom(0, "=", "blue"))


def test_satisfies_missing_semantics():
    # a missing value fails every order comparison and matches only '= Missing'
    assert not satisfies((None,), Atom(0, "<", 5))
    assert not satisfies((None,), Atom(0, ">=", 5))
    assert satisfies((None,), Atom(0, "=", None))
    assert not satisfies((3,), Atom(0, "=", None))


def test_satisfies_boolean_combinations():
    crit = AnyOf((Atom(1, "=", 1), Atom(1, "=", 2)))
    assert satisfies(("x", 2), crit)
    assert not satisfies(("x", 3), crit)
    both = AllOf((Atom(0, "=", "x"), Atom(1, ">", 1)))
    assert satisfies(("x", 2), both)
    assert not satisfies(("y", 2), both)


def test_satisfies_out_of_range_dimension():
    with pytest.raises(ValueError):
        satisfies((1,), Atom(3, "=", 1))


def check_contract(crit, b, m, e):
    for vec in b:
        assert satisfies(vec, crit), (vec, crit)
    for vec in e:
        assert not satisfies(vec, crit), (vec, crit)


def test_single_threshold_split():
    b, m, e = [(1,)], [], [(5,)]
    crit = compute_criterion(b, m, e, N1)
    assert crit == Atom(0, "<=", 1)
    check_contract(crit, b, m, e)


def test_b_only_points_pin_the_vectors():
    crit = compute_criterion([("red", 1)], [], [], CN)
    assert crit == AllOf((Atom(0, "=", "red"), Atom(1, "=", 1)))
    crit = compute_criterion([(1,)], [], [], N1)
    assert crit == Atom(0, "=", 1)


def test_m_points_are_carved_out():
    # no E points, but the tree still separates B from the middle ground
    crit = compute_criterion([(1,)], [(5,)], [], N1)
    assert satisfies((1,), crit) and not satisfies((5,), crit)


def test_m_points_never_block_separation():
    # an M vector colliding with B is simply treated as B
    crit = compute_criterion([(1,)], [(1,), (9,)], [(5,)], N1)
    check_contract(crit, [(1,)], [], [(5,)])


def test_collision_raises_inseparable():
    with pytest.raises(InseparableError) as err:
        compute_criterion([(1, "x")], [], [(1, "x")], FeatureSchema(
            (Dimension("n", ORDERED), Dimension("c", CATEGORICAL))))
    assert err.value.witness[0] == (1, "x")


def test_missing_handled_on_both_sides():
    crit = compute_criterion([(None,)], [], [(3,)], N1)
    check_contract(crit, [(None,)], [], [(3,)])
    crit = compute_criterion([(3,)], [], [(None,)], N1)
    check_contract(crit, [(3,)], [], [(None,)])


def test_categorical_splits():
    sch = FeatureSchema((Dimension("c", CATEGORICAL),))
    crit = compute_criterion([("a",), ("b",)], [], [("z",)], sch)
    check_contract(crit, [("a",), ("b",)], [], [("z",)])


def test_empty_b_rejected():
    with pytest.raises(ValueError):
        compute_criterion([], [], [(1,)], N1)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        compute_criterion([(1, 2)], [], [], N1)


def test_deterministic_output():
    b, m, e = [(1, "a"), (4, "b")], [(2, "a")], [(9, "z"), (None, "a")]
    sch = FeatureSchema((Dimension("n", ORDERED), Dimension("c", CATEGORICAL)))
    assert compute_criterion(b, m, e, sch) == compute_criterion(b, m, e, sch)


def random_vector(rng, schema):
    out = []
    for d in schema.dims:
        if rng.random() < 0.15:
            out.append(None)
        elif d.kind == ORDERED:
            out.append(rng.randint(0, 6))
        else:
            out.append(rng.choice("abcd"))
    return tuple(out)


def test_contract_on_random_separable_triples():
    rng = random.Random(23)
    sch = FeatureSchema(
        (Dimension("n", ORDERED), Dimension("c", CATEGORICAL), Dimension("m", ORDERED))
    )
    for _ in range(300):
        b = {random_vector(rng, sch) for _ in range(rng.randint(1, 5))}
        e = {random_vector(rng, sch) for _ in range(rng.randint(0, 5))} - b
        m = [random_vector(rng, sch) for _ in range(rng.randint(0, 4))]
        crit = compute_criterion(sorted(b, key=repr), m, sorted(e, key=repr), sch)
        check_contract(crit, b, [], e)


def test_tight_selection_on_random_triples():
    # among the vectors it was built from, the criterion accepts exactly B
    rng = random.Random(29)
    for _ in range(200):
        b = {(rng.randint(0, 5),) for _ in range(rng.randint(1, 3))}
        pool = {(i,) for i in range(6)}
        m = sorted(pool - b)
        crit = compute_criterion(sorted(b), m, [], N1)
        for vec in pool:
            assert satisfies(vec, crit) == (vec in b), (vec, sorted(b), crit)


def test_collisions_always_detected():
    rng = random.Random(31)
    for _ in range(100):
        shared = random_vector(rng, CN)
        b = [shared, random_vector(rng, CN)]
        e = [random_vector(rng, CN), shared]
        with pytest.raises(InseparableError):
            compute_criterion(b, [], e, CN)


def test_serialization_roundtrip():
    crit = AnyOf(
        (
            AllOf((Atom(0, "=", "red"), Atom(1, "<=", 3))),
            Atom(1, "=", None),
        )
    )
    doc = criterion_to_dict(crit, CN)
    assert criterion_from_dict(doc, CN) == crit
    assert criterion_key(crit, CN) == criterion_key(criterion_from_dict(doc, CN), CN)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"atom": {"f": "color", "op": "="}},
        {"atom": {"f": "nope", "op": "=", "v": "x"}},
        {"atom": {"f": "color", "op": "<", "v": "x"}},
        {"atom": {"f": "color", "op": "=", "v": 3}},
        {"atom": {"f": "n", "op": "<=", "v": "three"}},
        {"atom": {"f": "n", "op": "~", "v": 3}},
        {"all": []},
        {"any": "x"},
        {"all": [{"atom": {"f": "n", "op": "<=", "v": 1}}], "extra": 1},
    ],
)
def test_from_dict_rejects_malformed(doc):
    with pytest.raises(ValueError):
        criterion_from_dict(doc, CN)


def test_split_choices_pinned_on_mixed_kinds():
    # which criterion wins, ties included, on categorical and ordered
    # dimensions with missing values; one marker line per inseparable triple
    rng = random.Random(41)
    lines = []
    for _ in range(2000):
        sch = FeatureSchema(tuple(
            Dimension(f"d{i}", rng.choice((CATEGORICAL, ORDERED)))
            for i in range(rng.randint(1, 4))
        ))
        b = [random_vector(rng, sch) for _ in range(rng.randint(1, 5))]
        m = [random_vector(rng, sch) for _ in range(rng.randint(0, 4))]
        e = [random_vector(rng, sch) for _ in range(rng.randint(0, 5))]
        try:
            lines.append(criterion_key(compute_criterion(b, m, e, sch), sch))
        except InseparableError:
            lines.append("inseparable")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert lines.count("inseparable") == 401
    assert digest == "bb5a056278d4ae9baf162208bbb0b1803239b233716e00cc658b9b0360ece44e"
