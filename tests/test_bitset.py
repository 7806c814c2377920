import copy
import pickle
import random

import numpy as np
import pytest

from walkmine.bitset import VertexSet, iter_bits, mask_of


def test_iter_bits_ascending():
    assert list(iter_bits(0b101101)) == [0, 2, 3, 5]
    assert list(iter_bits(0)) == []


def test_mask_of_roundtrip():
    assert mask_of([0, 3, 7]) == 0b10001001
    assert mask_of([]) == 0


def test_construction_and_membership():
    s = VertexSet.from_ids(8, [1, 5])
    assert len(s) == 2
    assert 1 in s and 5 in s and 0 not in s
    assert 9 not in s
    assert s.ids() == (1, 5)
    assert list(s) == [1, 5]
    # numpy ids build the plain-int set, past the 64-bit word too
    ids = [3, 63, 64, 70]
    s = VertexSet.from_ids(100, np.array(ids))
    assert s == VertexSet.from_ids(100, ids) and list(s) == ids
    assert all(np.int64(i) in s for i in ids) and np.int64(71) not in s
    with pytest.raises(TypeError):
        VertexSet.from_ids(100, [1.0])
    with pytest.raises(TypeError):
        1.0 in s


def test_single_and_full():
    assert VertexSet.single(4, 2).mask == 0b100
    assert VertexSet.full(3).ids() == (0, 1, 2)
    assert not VertexSet(5)
    for i in (3, 63, 64, 70):
        assert VertexSet.single(100, np.int64(i)) == VertexSet.single(100, i)


def test_mask_is_read_as_an_index():
    # a numpy mask is held as the plain int, so iteration and repr work
    s = VertexSet(100, np.int64(5))
    assert type(s.mask) is int and s == VertexSet(100, 5)
    assert list(s) == [0, 2] and repr(s) == repr(VertexSet(100, 5))
    assert VertexSet(100, True) == VertexSet(100, 1)
    for bad in (5.0, "5", None):
        with pytest.raises(TypeError):
            VertexSet(100, bad)
    with pytest.raises(ValueError):
        VertexSet(3, np.int64(8))
    # and so is a size: held as the plain int, a numpy size neither
    # overflows nor wraps a shift, and a bool size is read as 0 or 1
    for s, same in (
        (VertexSet(np.int64(100), 1 << 99), VertexSet(100, 1 << 99)),
        (VertexSet.from_ids(np.int64(100), [99]), VertexSet(100, 1 << 99)),
        (VertexSet.full(np.int64(70)), VertexSet.full(70)),
        (VertexSet(True, 1), VertexSet(1, 1)),
    ):
        assert type(s.size) is int and s == same
    with pytest.raises(TypeError):
        VertexSet(100.0, 1)
    with pytest.raises(ValueError):
        VertexSet(np.int64(-1))


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        VertexSet.from_ids(4, [4])
    # a generator is read once; the first bad id is the one named
    with pytest.raises(ValueError, match=r"^vertex id 5 outside universe of size 4$"):
        VertexSet.from_ids(4, (i for i in (1, 5, -1, 7)))
    with pytest.raises(ValueError):
        VertexSet(3, 0b1000)
    with pytest.raises(ValueError):
        VertexSet(-1)


def test_immutability():
    s = VertexSet(4, 0b1)
    with pytest.raises(AttributeError):
        s.mask = 3
    with pytest.raises(AttributeError):
        del s.mask
    assert s == VertexSet(4, 0b1)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        VertexSet(4, 0b1) | VertexSet(5, 0b1)
    with pytest.raises(TypeError):
        VertexSet(4, 0b1) | {1}


def test_set_algebra_matches_builtin_sets():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 30)
        a = {i for i in range(n) if rng.random() < 0.4}
        b = {i for i in range(n) if rng.random() < 0.4}
        va, vb = VertexSet.from_ids(n, a), VertexSet.from_ids(n, b)
        assert set(va | vb) == a | b
        assert set(va & vb) == a & b
        assert set(va - vb) == a - b
        assert va.issubset(vb) == a.issubset(b)
        assert (va <= vb) == (a <= b)
        assert (va < vb) == (a < b)
        assert (va >= vb) == (a >= b)
        assert (va > vb) == (a > b)
        assert va.isdisjoint(vb) == a.isdisjoint(b)
        assert (va == vb) == (a == b)


def test_hashable_and_usable_as_key():
    a = VertexSet(6, 0b101)
    b = VertexSet(6, 0b101)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != VertexSet(7, 0b101)


def test_copy_and_pickle_keep_the_set():
    s = VertexSet.from_ids(5, [0, 3])
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and hash(twin) == hash(s)
        assert twin.ids() == (0, 3) and twin.size == 5


def test_equality_and_repr():
    s = VertexSet.from_ids(5, [0, 3])
    assert s != {0, 3} and s != s.mask
    assert repr(s) == "VertexSet({0, 3}, size=5)"
    assert repr(VertexSet(3)) == "VertexSet({}, size=3)"
