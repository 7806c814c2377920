import copy
import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from walkmine.criterion import (
    AllOf,
    AnyOf,
    Atom,
    InseparableError,
    compute_criterion,
    criterion_from_dict,
    criterion_key,
    criterion_mask,
    criterion_to_dict,
    satisfies,
)
from walkmine.bitset import VertexSet, mask_of
from walkmine.generate import random_instance
from walkmine.graph import _DENSE_LIMIT, CATEGORICAL, ORDERED, Dimension, DirectedGraph, FeatureSchema
from walkmine.stp import TosetProgram, select_by_criterion, simulate_stp

CN = FeatureSchema((Dimension("color", CATEGORICAL), Dimension("n", ORDERED)))
N1 = FeatureSchema((Dimension("n", ORDERED),))
SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_atom_validation():
    with pytest.raises(ValueError, match="unknown operator '!='"):
        Atom(0, "!=", 1)
    with pytest.raises(ValueError, match="order comparisons cannot use a missing threshold"):
        Atom(0, "<", None)
    with pytest.raises(ValueError, match="missing threshold"):
        Atom(dim=0, op=">=")
    Atom(0, "=", None)  # presence test is fine
    assert Atom(0, "=") == Atom(dim=0, op="=", value=None)


def test_boolean_nodes_must_be_nonempty():
    with pytest.raises(ValueError, match="empty conjunction"):
        AllOf(())
    with pytest.raises(ValueError, match="empty disjunction"):
        AnyOf(())
    with pytest.raises(ValueError, match="empty conjunction"):
        AllOf(iter(()))
    with pytest.raises(ValueError, match="empty disjunction"):
        AnyOf(iter(()))


def test_non_criteria_are_rejected():
    g = random_instance(3, extra_dims=1).graph
    red = g.rows[0][0]
    # cache criteria equal to the plain tuples below on the graph first
    criterion_mask(g, Atom(0, "=", red))
    criterion_mask(g, AllOf((Atom(0, "=", red),)))
    TosetProgram((Atom(0, "=", red), AllOf((Atom(0, "=", red),)))).key(g)
    calls = [
        lambda: satisfies(("red",), "color = red"),
        lambda: criterion_mask(g, ("color", "=", "red")),
        lambda: criterion_to_dict(None, CN),
        # junctions over plain tuples equal to cached criteria
        lambda: AllOf(((0, "=", red),)),
        lambda: AnyOf((Atom(0, "=", red), ("all", (Atom(0, "=", red),)))),
    ]
    # plain tuples equal to criteria are still no criteria
    for crit in ((0, "=", red), ("all", (Atom(0, "=", red),))):
        calls += [
            lambda c=crit: satisfies(g.rows[0], c),
            lambda c=crit: criterion_mask(g, c),
            lambda c=crit: criterion_to_dict(c, g.schema),
            lambda c=crit: TosetProgram((c,)).key(g),
        ]
    for call in calls:
        with pytest.raises(TypeError, match="not a criterion"):
            call()


def test_criteria_are_tuple_values():
    a, b = Atom(0, "=", "a"), Atom(1, "<=", 3)
    assert a == (0, "=", "a") and hash(a) == hash((0, "=", "a"))
    assert (a.dim, a.op, a.value) == (0, "=", "a")
    assert AllOf((a, b)) == AllOf([a, b]) and AllOf((a, b)).items == (a, b)
    assert AllOf((a, b)) != AnyOf((a, b))
    assert len({AllOf((a, b)): 1, AnyOf((a, b)): 2}) == 2
    assert repr(AnyOf((a, b))) == "AnyOf(items=(Atom(dim=0, op='=', value='a'), Atom(dim=1, op='<=', value=3)))"
    for crit, name in ((a, "dim"), (a, "op"), (a, "value"), (AllOf((a,)), "items"), (AnyOf((a,)), "items")):
        with pytest.raises(AttributeError):
            setattr(crit, name, 1)
        with pytest.raises(AttributeError):
            crit.extra = 1
    # no public path builds a criterion around its validating constructor
    for cls in (Atom, AllOf, AnyOf):
        assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")
        assert {n for n in dir(cls) if not n.startswith("_")} <= {"dim", "op", "value", "items", "count", "index"}
    assert a.__reduce__() == (Atom, (0, "=", "a"))
    assert AnyOf((a, b)).__reduce__() == (AnyOf, ((a, b),))


def _same_value(x, y):
    """Equal, of the same classes all the way down, and with equal hashes."""
    assert x == y and type(x) is type(y) and hash(x) == hash(y)
    if isinstance(x, (AllOf, AnyOf)):
        for i, j in zip(x.items, y.items, strict=True):
            _same_value(i, j)
    if isinstance(x, TosetProgram):
        for i, j in zip(x.steps, y.steps, strict=True):
            _same_value(i, j)


def test_criteria_copy_and_pickle_as_equal_values():
    crit = AnyOf((AllOf((Atom(0, "=", "red"), Atom(1, "<=", 3))), Atom(1, "=", None)))
    program = TosetProgram((crit, Atom(0, "=", "blue")))
    for value in (crit, program, TosetProgram(())):
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            _same_value(other, value)


def test_programs_are_tuple_values():
    a, b = Atom(0, "=", "a"), AnyOf((Atom(1, "<=", 3), Atom(1, "=", None)))
    steps = (a, b)
    p = TosetProgram(steps)
    assert p == steps and hash(p) == hash(steps) and p.steps == steps and type(p.steps) is tuple
    assert TosetProgram(()) == () == TosetProgram() and hash(TosetProgram(())) == hash(())
    assert repr(TosetProgram((a,))) == "TosetProgram(steps=(Atom(dim=0, op='=', value='a'),))"
    with pytest.raises(AttributeError):
        p.steps = ()
    with pytest.raises(AttributeError):
        p.extra = 1


# builds the program p in a child process, before the code _hash_seeded runs
_PROGRAM = ("import pickle, sys\n"
            "from walkmine.criterion import AllOf, Atom, TosetProgram\n"
            "p = TosetProgram((AllOf((Atom(0, '=', 'red'), Atom(1, '<=', 3))), Atom(0, '=', 'blue')))\n")


def _hash_seeded(code: str, seed: str, stdin: bytes = b"") -> bytes:
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, inherited]) if inherited else SRC,
               PYTHONHASHSEED=seed)
    proc = subprocess.run([sys.executable, "-c", _PROGRAM + code], input=stdin, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_program_pickled_under_one_hash_seed_is_found_under_another():
    data = _hash_seeded("hash(p)\nsys.stdout.buffer.write(pickle.dumps(p))", "1")
    out = _hash_seeded("q = pickle.loads(sys.stdin.buffer.read())\nprint(q == p, q in {p})", "2", data)
    assert out.split() == [b"True", b"True"]


def test_boolean_nodes_built_from_generators_keep_their_items():
    g = random_instance(3, extra_dims=1).graph
    atoms = [Atom(d, "=", g.rows[0][d]) for d in range(len(g.schema))]
    for node in (AllOf, AnyOf):
        want = criterion_mask(g, node(tuple(atoms)))
        crit = node(a for a in atoms)
        assert crit == node(tuple(atoms))
        assert [criterion_mask(g, crit) for _ in range(2)] == [want, want]


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


def test_missing_ordered_values_split_by_threshold():
    # "<= 1" cuts the missing value from the present one, so no "= None"
    # split is needed; the B side is the threshold's complement
    crit = compute_criterion([(None,)], [], [(1,)], N1)
    assert crit == AnyOf((Atom(0, ">", 1), Atom(0, "=", None)))
    check_contract(crit, [(None,)], [], [(1,)])


def test_zero_dimension_schema_is_rejected():
    with pytest.raises(ValueError, match="no dimensions"):
        compute_criterion([()], [], [], FeatureSchema(()))


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
        {"atom": {"f": "n", "op": "<=", "v": float("nan")}},
        {"atom": {"f": "n", "op": ">", "v": float("inf")}},
        {"atom": {"f": "n", "op": "=", "v": float("-inf")}},
        {"atom": {"f": ["color"], "op": "=", "v": "red"}},
        {"atom": {"f": {"color": 1}, "op": "=", "v": "red"}},
        {"foo": 1},
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


def _random_criterion(rng, g, kinds, depth=2):
    """A random criterion over ``g``'s schema; ``kinds`` collects the atom kinds drawn."""
    roll = rng.random()
    if depth and roll < 0.4:
        items = tuple(_random_criterion(rng, g, kinds, depth - 1) for _ in range(rng.randint(1, 3)))
        return AllOf(items) if roll < 0.2 else AnyOf(items)
    d = rng.randrange(len(g.schema))
    if g.schema.kind_of(d) == CATEGORICAL:
        value = rng.choice(sorted({row[d] for row in g.rows} - {None}) + ["absent", None])
        kinds.add("categorical")
        return Atom(d, "=", value)
    op = rng.choice(("<", "<=", "=", ">=", ">"))
    if op == "=" and rng.random() < 0.3:
        kinds.add("= None")
        return Atom(d, "=", None)
    if op != "=" and any(row[d] is None for row in g.rows):
        kinds.add("order on missing values")
    return Atom(d, op, rng.randint(-1, 10))


def _tiled(g, at_least):
    """Copies of ``g`` side by side until the graph has ``at_least`` vertices."""
    k = -(-at_least // g.n)
    names = [f"{name}#{i}" for i in range(k) for name in g.names]
    edges = [(s + i * g.n, d + i * g.n) for i in range(k) for s, d in g.edges()]
    return DirectedGraph(g.schema, names, g.rows * k, edges)


@pytest.mark.parametrize("dense", [True, False], ids=["bitmask", "edge-array"])
def test_criterion_mask_agrees_with_satisfies(dense):
    rng = random.Random(11)
    kinds: set = set()
    graphs = [random_instance(seed, extra_dims=2).graph for seed in range(3000, 3020)]
    if not dense:
        graphs = [_tiled(graphs[0], _DENSE_LIMIT)]
    assert all((g.n < _DENSE_LIMIT) == dense for g in graphs)
    for g in graphs:
        for _ in range(60 if dense else 40):
            crit = _random_criterion(rng, g, kinds)
            want = mask_of(v for v, row in enumerate(g.rows) if satisfies(row, crit))
            assert criterion_mask(g, crit) == want, crit
            A = VertexSet(g.n, rng.getrandbits(g.n))
            assert select_by_criterion(g, A, crit) == VertexSet(g.n, A.mask & want)
        program = [_random_criterion(rng, g, kinds, depth=0) for _ in range(3)]
        cur = rng.getrandbits(g.n)
        trace = [VertexSet(g.n, cur)]
        for crit in program:
            out = g.out_image(cur)
            cur = mask_of(v for v in range(g.n) if out >> v & 1 and satisfies(g.rows[v], crit))
            trace.append(VertexSet(g.n, cur))
        assert simulate_stp(g, trace[0], program) == trace
    assert kinds == {"categorical", "= None", "order on missing values"}


def test_criterion_mask_rejects_dimensions_outside_the_schema():
    g = random_instance(3000, extra_dims=1).graph
    good = Atom(0, "=", None)
    criterion_mask(g, good)
    for dim in (-1, 2):
        for junction in (AnyOf, AllOf):
            crit = junction((good, Atom(dim, "=", None)))
            for _ in range(2):  # a failed fold caches nothing
                with pytest.raises(ValueError, match="outside the schema"):
                    criterion_mask(g, crit)
            # rendering refuses what evaluation refuses, rather than name the last dimension
            for render in (lambda: criterion_to_dict(crit, g.schema), lambda: TosetProgram((crit,)).to_dict(g)):
                with pytest.raises(ValueError, match="outside the schema"):
                    render()
