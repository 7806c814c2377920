import pytest

from helpers import color_graph, feature_graph, vs
from paper_reference import consistent, select_by_criterion
from walkmine import criterion
from walkmine.criterion import AllOf, AnyOf, Atom, criterion_from_dict, criterion_mask
from walkmine.stp import (
    TosetProgram,
    classify_stp,
    simulate_stp,
)


def funnel_graph():
    return color_graph(
        ["s1", "s2", "a", "b", "c", "t"],
        ["blue", "blue", "red", "red", "blue", "green"],
        [("s1", "a"), ("s2", "b"), ("a", "t"), ("b", "t"), ("a", "c")],
    )


def two_dim_graph():
    return feature_graph(
        [("color", "categorical"), ("n", "ordered")],
        ["s", "a1", "a2", "t1", "t2"],
        [("blue", 0), ("red", 1), ("red", 5), ("green", 2), ("green", 7)],
        [("s", "a1"), ("s", "a2"), ("a1", "t1"), ("a2", "t2")],
    )


def test_select_by_criterion():
    g = funnel_graph()
    assert select_by_criterion(g, g.full_set(), Atom(0, "=", "red")) == vs(g, "a", "b")
    assert select_by_criterion(g, vs(g, "a", "t"), Atom(0, "=", "red")) == vs(g, "a")
    g2 = two_dim_graph()
    crit = AllOf((Atom(0, "=", "red"), Atom(1, "<=", 3)))
    assert select_by_criterion(g2, g2.full_set(), crit) == vs(g2, "a1")


def test_out_of_schema_dimension_raises_on_an_empty_frontier():
    g = funnel_graph()
    S, T = vs(g, "t"), vs(g, "t")  # t has no out-neighbours
    for program in ((Atom(1, "=", "red"),), (Atom(0, "=", "red"), Atom(-1, "<=", 3))):
        with pytest.raises(ValueError, match="outside the schema"):
            simulate_stp(g, S, program)
        with pytest.raises(ValueError, match="outside the schema"):
            classify_stp(g, S, T, program)


def test_atom_masks_stay_with_their_graph():
    g = funnel_graph()
    recoloured = color_graph(
        ["s1", "s2", "a", "b", "c", "t"],
        ["blue", "blue", "red", "blue", "red", "green"],
        [("s1", "a"), ("s2", "b"), ("a", "t"), ("b", "t"), ("a", "c")],
    )
    red = Atom(0, "=", "red")
    assert criterion_mask(g, red) == vs(g, "a", "b").mask
    assert criterion_mask(recoloured, red) == vs(recoloured, "a", "c").mask
    assert criterion_mask(g, red) == vs(g, "a", "b").mask
    red_or_green = AnyOf((red, Atom(0, "=", "green")))
    assert criterion_mask(g, red_or_green) == vs(g, "a", "b", "t").mask
    assert criterion_mask(recoloured, red_or_green) == vs(recoloured, "a", "c", "t").mask
    assert criterion_mask(g, red_or_green) == vs(g, "a", "b", "t").mask
    S = vs(g, "s1", "s2")
    assert simulate_stp(g, S, (red,))[-1] == vs(g, "a", "b")
    assert simulate_stp(recoloured, S, (red,))[-1] == vs(recoloured, "a")


def test_programs_parsed_apart_share_their_atom_masks(monkeypatch):
    g = two_dim_graph()
    built = []
    atom_mask = criterion._atom_mask

    def counted(rows, d, op, value):
        built.append((d, op, value))
        return atom_mask(rows, d, op, value)

    monkeypatch.setattr(criterion, "_atom_mask", counted)
    # stp reads criterion_mask through its own import, so this counts only
    # the items that junctions fold
    folded = []
    mask = criterion.criterion_mask

    def counted_item(g, crit):
        folded.append(crit)
        return mask(g, crit)

    monkeypatch.setattr(criterion, "criterion_mask", counted_item)
    red = {"atom": {"f": "color", "op": "=", "v": "red"}}
    low = {"atom": {"f": "n", "op": "<=", "v": 3}}
    green = {"atom": {"f": "color", "op": "=", "v": "green"}}
    docs = ([{"all": [red, low]}, green], [{"any": [red, low]}, {"any": [green, low]}]) * 2
    programs = [TosetProgram(criterion_from_dict(step, g.schema) for step in doc) for doc in docs]
    assert programs[0].steps[0].items[0] is not programs[1].steps[0].items[0]
    assert programs[0] == programs[2] and programs[0].steps[0] is not programs[2].steps[0]
    S = vs(g, "s")
    for program, T in zip(programs, (vs(g, "t1"), vs(g, "t1", "t2")) * 2):
        assert classify_stp(g, S, T, program).kind == "exact"
    assert sorted(built) == [(0, "=", "green"), (0, "=", "red"), (1, "<=", 3)]
    assert len(folded) == 6  # three distinct junctions of two items, each folded once


def test_cached_criteria_make_no_nested_call(monkeypatch):
    g = two_dim_graph()
    nested = []
    mask = criterion.criterion_mask

    def counted(g, crit):
        nested.append(crit)
        return mask(g, crit)

    monkeypatch.setattr(criterion, "criterion_mask", counted)
    red, low = Atom(0, "=", "red"), Atom(1, "<=", 3)
    # red & (low | red) is red; low | (red & low) is low
    for crit, names in ((AllOf((red, AnyOf((low, red)))), ("a1", "a2")),
                        (AnyOf((low, AllOf((red, low)))), ("s", "a1", "t1"))):
        assert mask(g, crit) == vs(g, *names).mask
        made = len(nested)
        assert made > 0
        assert mask(g, crit) == vs(g, *names).mask and len(nested) == made


def test_simulate_matches_colour_walk():
    g = funnel_graph()
    S = vs(g, "s1", "s2")
    trace = simulate_stp(g, S, (Atom(0, "=", "red"), Atom(0, "=", "green")))
    assert trace == [S, vs(g, "a", "b"), vs(g, "t")]


def test_simulate_accepts_program_object():
    g = funnel_graph()
    S = vs(g, "s1")
    p = TosetProgram((Atom(0, "=", "red"),))
    assert simulate_stp(g, S, p) == [S, vs(g, "a")]
    assert len(p) == 1


def test_classify_kinds():
    g = two_dim_graph()
    S, T = vs(g, "s"), vs(g, "t1")
    sharp = (AllOf((Atom(0, "=", "red"), Atom(1, "<=", 1))), Atom(1, "<=", 2))
    blunt = (Atom(0, "=", "red"), Atom(0, "=", "green"))
    assert classify_stp(g, S, T, sharp).kind == "exact"
    wide = classify_stp(g, S, T, blunt)
    assert wide.kind == "infeasible"
    assert wide.trace[-1] == vs(g, "t1", "t2")
    assert classify_stp(g, S, T, (Atom(0, "=", "green"),)).kind == "complete_halt"


def test_program_built_from_a_generator_keeps_its_steps():
    g = two_dim_graph()
    S, T = vs(g, "s"), vs(g, "t1")
    steps = (Atom(0, "=", "red"), Atom(0, "=", "blue"))
    p = TosetProgram(c for c in steps)
    assert p == TosetProgram(steps) and hash(p) == hash(TosetProgram(steps))
    for _ in range(2):
        cls = classify_stp(g, S, T, p)
        assert cls.kind == "complete_halt" and len(cls.trace) == 3
        assert simulate_stp(g, S, p) == list(cls.trace)


def test_classify_feasible_subset():
    g = two_dim_graph()
    S, T = vs(g, "s"), vs(g, "t1", "t2")
    narrow = (AllOf((Atom(0, "=", "red"), Atom(1, "<=", 1))), Atom(0, "=", "green"))
    assert classify_stp(g, S, T, narrow).kind == "feasible"


def test_program_identity():
    g = two_dim_graph()
    p = TosetProgram((Atom(0, "=", "red"), Atom(1, "<=", 2)))
    q = TosetProgram((Atom(0, "=", "red"), Atom(1, "<=", 2)))
    assert p == q and p.key(g) == q.key(g)
    assert p.to_dict(g) == [
        {"atom": {"f": "color", "op": "=", "v": "red"}},
        {"atom": {"f": "n", "op": "<=", "v": 2}},
    ]


def test_consistent_detects_vector_collision():
    g = two_dim_graph()
    S = vs(g, "s")
    assert consistent(g, S, vs(g, "a1"), vs(g, "a2"))
    twins = feature_graph(
        [("color", "categorical")],
        ["s", "u", "w"],
        [("blue",), ("red",), ("red",)],
        [("s", "u"), ("s", "w")],
    )
    assert not consistent(twins, vs(twins, "s"), vs(twins, "u"), vs(twins, "w"))


def test_consistent_preconditions():
    g = two_dim_graph()
    S = vs(g, "s")
    with pytest.raises(ValueError):
        consistent(g, S, vs(g, "a1"), vs(g, "a1"))
    with pytest.raises(ValueError):
        consistent(g, S, vs(g, "a1"), vs(g, "t1"))
