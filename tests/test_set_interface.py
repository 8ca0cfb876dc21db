"""Unit tests of the Listing-1 Set interface across all representations.

The class matrix comes from ``repro.core.registry.SET_CLASSES`` (via the
``any_set_cls`` fixture), so user-registered and approximate backends are
covered automatically.  Exact classes (``cls.IS_EXACT``) get strict
equality checks; approximate classes are checked against their one-sided
guarantees: materialized intersections are supersets of the truth (bounded
by the left operand), differences are subsets, ``contains`` never reports
a false negative, and count estimates stay inside their always-valid
clamping ranges.  Iteration, ``cardinality``, ``to_array``, ``clone`` and
``add``/``remove`` operate on the exact member store of every backend, so
those checks stay strict for all classes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    BitSet,
    RoaringSet,
    SetBase,
    SortedSet,
    get_set_class,
    registered_set_classes,
)
from repro.core.registry import SET_CLASSES

ALL_SET_CLASSES = registered_set_classes()


class TestConstructors:
    def test_empty(self, any_set_cls):
        s = any_set_cls.empty()
        assert s.cardinality() == 0
        assert s.is_empty()
        assert not s
        assert list(s) == []

    def test_single(self, any_set_cls):
        s = any_set_cls.single(7)
        assert list(s) == [7]
        assert s.cardinality() == 1

    def test_range(self, any_set_cls):
        assert list(any_set_cls.range(5)) == [0, 1, 2, 3, 4]
        assert list(any_set_cls.range(0)) == []

    def test_from_iterable_dedupes(self, any_set_cls):
        s = any_set_cls.from_iterable([3, 1, 3, 2, 1])
        assert list(s) == [1, 2, 3]

    def test_from_sorted_array(self, any_set_cls):
        arr = np.array([2, 5, 9], dtype=np.int64)
        s = any_set_cls.from_sorted_array(arr)
        assert list(s) == [2, 5, 9]

    def test_from_vector_list(self, any_set_cls):
        # The paper's constructor from a std::vector — a Python list here.
        s = any_set_cls.from_iterable([10, 20, 30])
        assert s.cardinality() == 3


class TestAlgebra:
    A = [1, 3, 5, 7, 9]
    B = [3, 4, 5, 6]

    def make(self, cls, values):
        return cls.from_iterable(values)

    def test_intersect(self, any_set_cls):
        a, b = self.make(any_set_cls, self.A), self.make(any_set_cls, self.B)
        got = set(a.intersect(b))
        if any_set_cls.IS_EXACT:
            assert got == {3, 5}
        else:
            assert {3, 5} <= got <= set(self.A)
        # operands unchanged
        assert list(a) == self.A
        assert list(b) == sorted(self.B)

    def test_intersect_count(self, any_set_cls):
        a, b = self.make(any_set_cls, self.A), self.make(any_set_cls, self.B)
        count = a.intersect_count(b)
        if any_set_cls.IS_EXACT:
            assert count == 2
        else:
            assert 0 <= count <= min(len(a), len(b))

    def test_union(self, any_set_cls):
        a, b = self.make(any_set_cls, self.A), self.make(any_set_cls, self.B)
        got = set(a.union(b))
        expected = {1, 3, 4, 5, 6, 7, 9}
        if any_set_cls.IS_EXACT:
            assert got == expected
        else:
            assert expected <= got

    def test_union_count(self, any_set_cls):
        a, b = self.make(any_set_cls, self.A), self.make(any_set_cls, self.B)
        count = a.union_count(b)
        if any_set_cls.IS_EXACT:
            assert count == 7
        else:
            assert max(len(a), len(b)) <= count <= len(a) + len(b)

    def test_diff(self, any_set_cls):
        a, b = self.make(any_set_cls, self.A), self.make(any_set_cls, self.B)
        if any_set_cls.IS_EXACT:
            assert list(a.diff(b)) == [1, 7, 9]
            assert list(b.diff(a)) == [4, 6]
        else:
            assert set(a.diff(b)) <= {1, 7, 9}
            assert set(b.diff(a)) <= {4, 6}

    def test_inplace_variants(self, any_set_cls):
        a = self.make(any_set_cls, self.A)
        a.intersect_inplace(self.make(any_set_cls, self.B))
        if any_set_cls.IS_EXACT:
            assert list(a) == [3, 5]
        else:
            assert {3, 5} <= set(a) <= set(self.A)
        b = self.make(any_set_cls, self.A)
        b.union_inplace(self.make(any_set_cls, [99]))
        if any_set_cls.IS_EXACT:
            assert list(b) == self.A + [99]
        else:
            assert set(self.A) | {99} <= set(b)
        c = self.make(any_set_cls, self.A)
        c.diff_inplace(self.make(any_set_cls, [5]))
        if any_set_cls.IS_EXACT:
            assert list(c) == [1, 3, 7, 9]
        else:
            assert set(c) <= {1, 3, 7, 9}

    def test_element_overloads(self, any_set_cls):
        # diff_element/union_element ride on clone + add/remove, which act
        # on the exact member store of every backend — strict for all.
        a = self.make(any_set_cls, self.A)
        assert list(a.diff_element(3)) == [1, 5, 7, 9]
        assert list(a.union_element(2)) == [1, 2, 3, 5, 7, 9]
        assert list(a) == self.A  # non-mutating overloads

    def test_operators(self, any_set_cls):
        a, b = self.make(any_set_cls, self.A), self.make(any_set_cls, self.B)
        if any_set_cls.IS_EXACT:
            assert list(a & b) == [3, 5]
            assert list(a | b) == [1, 3, 4, 5, 6, 7, 9]
            assert list(a - b) == [1, 7, 9]
        else:
            assert {3, 5} <= set(a & b) <= set(self.A)
            assert {1, 3, 4, 5, 6, 7, 9} <= set(a | b)
            assert set(a - b) <= {1, 7, 9}

    def test_empty_operand(self, any_set_cls):
        a = self.make(any_set_cls, self.A)
        e = any_set_cls.empty()
        assert set(a.union(e)) >= set(self.A)
        assert list(e.diff(a)) == []
        assert set(a.intersect(e)) <= set(self.A)
        assert set(a.diff(e)) <= set(self.A)
        if any_set_cls.IS_EXACT:
            assert list(a.union(e)) == self.A
            assert list(a.intersect(e)) == []
            assert list(a.diff(e)) == self.A


class TestPointOps:
    def test_contains(self, any_set_cls):
        s = any_set_cls.from_iterable([2, 4, 6])
        # Members must always be found (no false negatives, Bloom included).
        assert s.contains(4)
        assert 4 in s
        if any_set_cls.IS_EXACT:
            assert not s.contains(5)
            assert 5 not in s

    def test_add_remove(self, any_set_cls):
        s = any_set_cls.from_iterable([1, 3])
        s.add(2)
        assert list(s) == [1, 2, 3]
        s.add(2)  # idempotent
        assert list(s) == [1, 2, 3]
        s.remove(1)
        assert list(s) == [2, 3]
        s.remove(99)  # absent: no-op, like Listing 1's semantics
        assert list(s) == [2, 3]

    def test_len_protocol(self, any_set_cls):
        assert len(any_set_cls.from_iterable([5, 6])) == 2


class TestOtherMethods:
    def test_clone_is_independent(self, any_set_cls):
        a = any_set_cls.from_iterable([1, 2, 3])
        b = a.clone()
        b.add(9)
        assert list(a) == [1, 2, 3]
        assert list(b) == [1, 2, 3, 9]

    def test_assign_is_independent(self, any_set_cls):
        # After A = B, point updates on either side leave the other alone.
        b = any_set_cls.from_iterable([1, 5, 8])
        a = any_set_cls.from_iterable([2])
        a.assign(b)
        a.add(3)
        a.remove(8)
        assert list(a) == [1, 3, 5]
        assert list(b) == [1, 5, 8]
        b.add(9)
        assert list(a) == [1, 3, 5]
        # The fused A = B ∩ C leaves its operands alone too.
        c = any_set_cls.from_iterable([1, 5, 9])
        a.intersect_assign(b, c)
        a.add(4)
        assert list(b) == [1, 5, 8, 9] and list(c) == [1, 5, 9]

    def test_to_array(self, any_set_cls):
        arr = any_set_cls.from_iterable([5, 1, 9]).to_array()
        assert arr.dtype == np.int64
        assert arr.tolist() == [1, 5, 9]

    def test_equality(self, any_set_cls):
        a = any_set_cls.from_iterable([1, 2])
        b = any_set_cls.from_iterable([2, 1])
        c = any_set_cls.from_iterable([1, 3])
        assert a == b
        assert a != c
        assert a != "not a set"

    def test_cross_class_equality(self):
        a = SortedSet.from_iterable([1, 2, 3])
        b = BitSet.from_iterable([1, 2, 3])
        assert a == b

    def test_repr_is_readable(self, any_set_cls):
        assert "1" in repr(any_set_cls.from_iterable([1]))


class TestMixedRepresentations:
    """Binary ops accept a set of any other class (implicit conversion)."""

    @pytest.mark.parametrize(
        "other_cls", ALL_SET_CLASSES, ids=lambda c: c.__name__
    )
    def test_mixed_intersect(self, any_set_cls, other_cls):
        a = any_set_cls.from_iterable([1, 2, 3, 4])
        b = other_cls.from_iterable([3, 4, 5])
        if any_set_cls.IS_EXACT and other_cls.IS_EXACT:
            assert list(a.intersect(b)) == [3, 4]
            assert list(a.union(b)) == [1, 2, 3, 4, 5]
            assert list(a.diff(b)) == [1, 2]
        else:
            assert {3, 4} <= set(a.intersect(b)) <= {1, 2, 3, 4}
            assert {1, 2, 3, 4, 5} <= set(a.union(b))
            assert set(a.diff(b)) <= {1, 2}


class TestRegistry:
    def test_lookup(self):
        assert get_set_class("sorted") is SortedSet
        assert get_set_class("roaring") is RoaringSet

    def test_approx_backends_registered(self):
        from repro.approx import BloomFilterSet, KMVSketchSet

        assert get_set_class("bloom") is BloomFilterSet
        assert get_set_class("kmv") is KMVSketchSet
        assert not BloomFilterSet.IS_EXACT
        assert not KMVSketchSet.IS_EXACT
        for cls in (BloomFilterSet, KMVSketchSet):
            assert issubclass(cls, SetBase)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown set class"):
            get_set_class("nope")

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(KeyError) as excinfo:
            get_set_class("not-a-backend")
        message = str(excinfo.value)
        for name in SET_CLASSES:
            assert name in message

    def test_register_rejects_non_set(self):
        from repro.core import register_set_class

        with pytest.raises(TypeError, match="subclass SetBase"):
            register_set_class("bad", int)
        with pytest.raises(TypeError, match="subclass SetBase"):
            register_set_class("bad", SortedSet.empty())  # instance, not class
        assert "bad" not in SET_CLASSES

    def test_register_user_class_is_picked_up(self):
        from repro.approx import bloom_set_class
        from repro.core import register_set_class

        custom = bloom_set_class(bits_per_element=8, name="CustomBloom")
        register_set_class("custom-bloom", custom)
        try:
            assert get_set_class("custom-bloom") is custom
        finally:
            del SET_CLASSES["custom-bloom"]
