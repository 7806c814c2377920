import random

from helpers import color_graph
from oracle_reference import minimal_covers_bruteforce
from walkmine.bitset import VertexSet, mask_of
from walkmine.mining import Budget, MiningConfig
from walkmine.setcover import cover_masks, iter_covers, minimal_covers


def test_empty_target_has_the_empty_cover():
    assert minimal_covers(0, [(0, 0b1)]) == [()]


def test_uncoverable_target_yields_nothing():
    assert minimal_covers(0b100, [(0, 0b011)]) == []


def test_single_and_joint_covers():
    # v3 covers both elements; v1 and v2 must pair up
    cands = [(1, 0b01), (2, 0b10), (3, 0b11)]
    assert minimal_covers(0b11, cands) == [(1, 2), (3,)]


def test_redundant_members_never_appear():
    cands = [(1, 0b11), (2, 0b01)]
    assert minimal_covers(0b11, cands) == [(1,)]


def test_candidates_outside_target_are_trimmed():
    # images are intersected with the target before covering
    cands = [(1, 0b111), (2, 0b001)]
    assert minimal_covers(0b001, cands) == [(1,), (2,)]


def test_deterministic_lexicographic_order():
    cands = [(5, 0b10), (1, 0b01), (3, 0b11)]
    out = minimal_covers(0b11, cands)
    assert out == sorted(out)
    assert out == [(1, 5), (3,)]


def test_iter_covers_yields_before_each_branch():
    # the root branches on element 0 with v1 or v3; v1 then branches on
    # element 1, with v2 alone; a completed cover branches no further
    cands = [(1, 0b01), (2, 0b10), (3, 0b11)]
    assert list(iter_covers(0b11, cands)) == [None, None, (1, 2), (3,)]
    assert list(iter_covers(0, cands)) == [()]


def _drive(listing):
    """Run a cover listing to its end: (yields, returned value)."""
    yields = 0
    while True:
        try:
            next(listing)
        except StopIteration as done:
            return yields, done.value
        yields += 1


def test_cover_masks_charges_each_branch():
    # v0..v3 point into {t0, t1} as the masks 0b01, 0b10, 0b11, 0b01 do
    g = color_graph(["v0", "v1", "v2", "v3", "t0", "t1"], ["red"] * 6,
                    [("v0", "t0"), ("v1", "t1"), ("v2", "t0"), ("v2", "t1"), ("v3", "t0")])
    B, pool = mask_of([4, 5]), mask_of(range(4))
    cands = [(v, g.out_mask(v) & B) for v in range(4)]
    branches = sum(cover is None for cover in iter_covers(B, cands))
    budget = Budget(MiningConfig(max_len=0))
    yields, masks = _drive(cover_masks(g, B, pool, budget))
    assert masks == [mask_of(ids) for ids in minimal_covers(B, cands)]
    assert masks == [mask_of([0, 1]), mask_of([1, 3]), mask_of([2])]
    assert yields == budget.triples == branches > 2
    for cap in range(1, branches):
        budget = Budget(MiningConfig(max_len=0, max_triples=cap))
        assert _drive(cover_masks(g, B, pool, budget)) == (cap, None)
        assert budget.triples == cap + 1 and budget.tripped


def test_a_cover_of_many_members_needs_no_recursion():
    n = 1100
    assert minimal_covers((1 << n) - 1, [(i, 1 << i) for i in range(n)]) == [tuple(range(n))]


def test_matches_bruteforce_on_random_instances():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 9)
        pool = list(range(n))
        images = {v: mask_of(i for i in range(6) if rng.random() < 0.3) for v in pool}
        target = mask_of(i for i in range(6) if rng.random() < 0.5)
        got = minimal_covers(target, [(v, images[v]) for v in pool])
        want = minimal_covers_bruteforce(
            VertexSet.from_ids(n, pool) if pool else VertexSet(0),
            {v: VertexSet(6, images[v] & target) for v in pool},
            VertexSet(6, target),
        )
        assert {frozenset(c) for c in got} == {frozenset(w.ids()) for w in want}
        assert len(got) == len(set(got))
        # each result is itself minimal
        for cover in got:
            union = 0
            for v in cover:
                union |= images[v]
            assert target & ~union == 0
            for v in cover:
                rest = 0
                for u in cover:
                    if u != v:
                        rest |= images[u]
                assert target & ~rest != 0
