"""Density-adaptive dispatch: bit-identity, policy, and platform threading.

The contract under test, layer by layer:

* **policy** — :func:`choose_representation` /
  :func:`choose_intersect_algorithm` pick organizations and algorithms at
  the documented thresholds;
* **backend** — :class:`AdaptiveSet` is element-identical to
  :class:`SortedSet` on every operation (hypothesis-driven), keeps its
  bitmap coherent with the canonical array, and records the *same
  normalized element counters* as every other exact backend;
* **platform** — ``adaptive`` is a backend selected by name on every
  surface (there is no separate dispatch mode), and within one suite plan
  its cells equal ``sorted``'s and ``bitset``'s in values and counters.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveSet,
    BitSet,
    CompressedSortedSet,
    HashSet,
    RoaringSet,
    SortedSet,
)
from repro.core.counters import COUNTERS, snapshot
from repro.core.dispatch import (
    GALLOP_RATIO,
    choose_intersect_algorithm,
    choose_representation,
)
from repro.core.ops import (
    as_sorted_unique,
    diff_merge,
    intersect_count_galloping,
    intersect_count_merge,
    intersect_galloping,
    intersect_merge,
    member_mask_galloping,
    member_mask_merge,
    union_merge,
)
from repro.core.packed import (
    pack_sorted,
    popcount,
    unpack,
    words_needed,
)
from repro.graph import SetGraph, load_dataset
from repro.platform.cli import resolve_set_class
from repro.platform.runner import strip_timing
from repro.platform.session import MiningSession, Query
from repro.platform.suite import (
    ExperimentPlan, plan_from_argv, resolve_backend,
)

EXACT_BACKENDS = [SortedSet, AdaptiveSet, BitSet, RoaringSet, HashSet,
                  CompressedSortedSet]

elements = st.integers(min_value=0, max_value=5_000)
element_lists = st.lists(elements, max_size=80)


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------
def test_choose_representation_thresholds():
    assert choose_representation(0, 0) == "array"
    # 64 elements in [0, 63] need one word: maximally dense.
    assert choose_representation(64, 63) == "bitmap"
    # A lone huge element: words(max) far exceeds the cardinality.
    assert choose_representation(1, 1 << 20) == "array"
    # Boundary: words(max) == cardinality packs.
    assert choose_representation(2, 127) == "bitmap"
    assert choose_representation(1, 127) == "array"


def test_choose_intersect_algorithm_thresholds():
    assert choose_intersect_algorithm(4, 40) == "gallop"   # tiny side
    assert choose_intersect_algorithm(100, 100) == "merge"
    skew = GALLOP_RATIO * 100
    assert choose_intersect_algorithm(100, skew) == "merge"  # at ratio
    assert choose_intersect_algorithm(100, skew + 1) == "gallop"
    assert choose_intersect_algorithm(skew + 1, 100) == "gallop"  # symmetric


# ---------------------------------------------------------------------------
# merge-path kernels vs the numpy sort-based references
# ---------------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(a=element_lists, b=element_lists)
def test_merge_kernels_match_numpy(a, b):
    sa = np.unique(np.asarray(a, dtype=np.int64))
    sb = np.unique(np.asarray(b, dtype=np.int64))
    assert np.array_equal(intersect_merge(sa, sb), np.intersect1d(sa, sb))
    assert np.array_equal(intersect_galloping(sa, sb),
                          np.intersect1d(sa, sb))
    assert np.array_equal(union_merge(sa, sb), np.union1d(sa, sb))
    assert np.array_equal(diff_merge(sa, sb), np.setdiff1d(sa, sb))
    expected_count = len(np.intersect1d(sa, sb))
    assert intersect_count_merge(sa, sb) == expected_count
    assert intersect_count_galloping(sa, sb) == expected_count
    isin = np.isin(sa, sb)
    assert np.array_equal(member_mask_merge(sa, sb), isin)
    assert np.array_equal(member_mask_galloping(sa, sb), isin)


@settings(max_examples=60, deadline=None)
@given(a=element_lists)
def test_as_sorted_unique_any_input(a):
    arr = np.asarray(a, dtype=np.int64)
    for variant in (arr, arr[::-1]):
        out = as_sorted_unique(variant)
        assert np.array_equal(out, np.unique(arr))


# ---------------------------------------------------------------------------
# packed-word kernels
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(a=element_lists)
def test_pack_unpack_roundtrip(a):
    arr = np.unique(np.asarray(a, dtype=np.int64))
    words = pack_sorted(arr)
    assert np.array_equal(unpack(words), arr)
    assert popcount(words) == len(arr)
    if len(arr):
        assert len(words) == words_needed(int(arr[-1]))


# ---------------------------------------------------------------------------
# AdaptiveSet — element identity with SortedSet, layout invariants
# ---------------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(a=element_lists, b=element_lists, x=elements)
def test_adaptive_matches_sorted(a, b, x):
    sa, sb = AdaptiveSet.from_iterable(a), AdaptiveSet.from_iterable(b)
    ra, rb = SortedSet.from_iterable(a), SortedSet.from_iterable(b)
    assert np.array_equal(sa.intersect(sb).to_array(),
                          ra.intersect(rb).to_array())
    assert sa.intersect_count(sb) == ra.intersect_count(rb)
    assert np.array_equal(sa.union(sb).to_array(), ra.union(rb).to_array())
    assert np.array_equal(sa.diff(sb).to_array(), ra.diff(rb).to_array())
    assert sa.contains(x) == ra.contains(x)
    # Fused assign == unfused assign + intersect_inplace.
    fused, unfused = AdaptiveSet.empty(), AdaptiveSet.empty()
    fused.intersect_assign(sa, sb)
    unfused.assign(sa)
    unfused.intersect_inplace(sb)
    assert np.array_equal(fused.to_array(), unfused.to_array())
    # Mutations track SortedSet exactly.
    ca, cr = sa.clone(), ra.clone()
    ca.add(x), cr.add(x)
    assert np.array_equal(ca.to_array(), cr.to_array())
    ca.remove(x), cr.remove(x)
    assert np.array_equal(ca.to_array(), cr.to_array())


def _assert_layout_coherent(s: AdaptiveSet) -> None:
    if s._words is not None:
        assert np.array_equal(unpack(s._words), s._data)
        assert len(s._words) <= max(1, len(s._data))


@settings(max_examples=60, deadline=None)
@given(a=element_lists, b=element_lists, x=elements)
def test_adaptive_bitmap_stays_coherent(a, b, x):
    sa, sb = AdaptiveSet.from_iterable(a), AdaptiveSet.from_iterable(b)
    for s in (sa, sb, sa.intersect(sb), sa.union(sb), sa.diff(sb)):
        _assert_layout_coherent(s)
    c = sa.clone()
    c.add(x)
    _assert_layout_coherent(c)
    c.remove(x)
    _assert_layout_coherent(c)
    c.intersect_assign(sa, sb)
    _assert_layout_coherent(c)


def test_adaptive_assign_aliasing_is_safe():
    # assign() aliases payloads; a point mutation through one alias must
    # never leak into the other (copy-on-write bitmap, rebound arrays).
    dense = AdaptiveSet.from_iterable(range(256))
    alias = AdaptiveSet.empty()
    alias.assign(dense)
    alias.remove(7)
    assert dense.contains(7)
    assert not alias.contains(7)
    alias.add(7)
    alias.add(1000)
    assert not dense.contains(1000)
    _assert_layout_coherent(dense)
    _assert_layout_coherent(alias)


def test_from_sorted_array_validates_every_exact_backend():
    # Unsorted / duplicated input must never silently corrupt a set
    # (BitSet read its buffer size off arr[-1]; RoaringSet split chunk
    # boundaries with np.diff — both require sortedness).
    bad = np.array([9, 3, 3, 70_000, 1], dtype=np.int64)
    want = np.array([1, 3, 9, 70_000], dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    for cls in EXACT_BACKENDS:
        got = cls.from_sorted_array(bad)
        assert np.array_equal(got.to_array(), want), cls.__name__
        assert got.contains(70_000) and not got.contains(2)
        assert cls.from_sorted_array(empty).cardinality() == 0


# ---------------------------------------------------------------------------
# normalized counter units — identical deltas across exact backends
# ---------------------------------------------------------------------------
def _exercise(cls):
    a = cls.from_iterable(range(0, 120, 2))
    b = cls.from_iterable(range(0, 90, 3))
    graph = SetGraph([b, cls.from_iterable(range(1, 200, 5)), cls.empty()],
                     cls)
    before = snapshot()
    a.intersect(b)
    a.intersect_count(b)
    a.intersect_count_many(graph, [0, 1, 2, 1])
    a.union(b)
    a.diff(b)
    scratch = cls.empty()
    scratch.intersect_assign(a, b)
    a.contains(7)
    c = a.clone()
    c.add(7)      # absent: 1 write
    c.add(7)      # present: no write
    c.remove(7)   # present: 1 write
    c.remove(7)   # absent: no write
    delta = before.delta(snapshot())
    return (delta.set_ops, delta.elements_read, delta.elements_written,
            delta.point_ops, delta.sketch_builds)


def test_counter_units_identical_across_backends():
    reference = _exercise(SortedSet)
    for cls in EXACT_BACKENDS[1:]:
        assert _exercise(cls) == reference, cls.__name__


def test_adaptive_words_scanned_attribution():
    dense_a = AdaptiveSet.from_iterable(range(0, 512))
    dense_b = AdaptiveSet.from_iterable(range(256, 768))
    sparse = AdaptiveSet.from_iterable([1, 1000, 4000])
    mid = AdaptiveSet.from_iterable(range(0, 4096, 2))
    before = snapshot()
    dense_a.intersect_count(dense_b)          # bitmap x bitmap
    sparse.intersect_count(mid)               # tiny side: hashed probes
    delta = before.delta(snapshot())
    assert delta.words_scanned.get("adaptive/bitmap", 0) > 0
    assert delta.words_scanned.get("adaptive/hash", 0) == 3
    # Spacing 128 keeps words(max) > cardinality, so both stay arrays;
    # balanced sizes above the hash/gallop cut-offs select the merge path.
    arr_a = AdaptiveSet.from_iterable(range(0, 38400, 128))
    arr_b = AdaptiveSet.from_iterable(range(64, 38464, 128))
    assert arr_a.representation() == arr_b.representation() == "array"
    before = snapshot()
    arr_a.intersect_count(arr_b)              # balanced arrays: merge
    delta = before.delta(snapshot())
    assert delta.words_scanned.get("adaptive/merge", 0) > 0


# ---------------------------------------------------------------------------
# platform threading
# ---------------------------------------------------------------------------
def test_adaptive_is_selected_by_name():
    graph = load_dataset("sc-ht-mini")
    plan = ExperimentPlan(datasets=("sc-ht-mini",))
    assert resolve_set_class("adaptive") is AdaptiveSet
    assert resolve_backend(plan, "adaptive", graph) is AdaptiveSet
    # Every other name keeps its own class, the reference included.
    assert resolve_backend(plan, "sorted", graph) is SortedSet
    assert resolve_backend(plan, "bitset", graph) is BitSet
    assert not resolve_backend(plan, "bloom", graph).IS_EXACT
    assert plan_from_argv(["--set-classes", "adaptive"]).set_classes == (
        "adaptive",)
    # The name is the one way to pick it: no dispatch field or builder.
    assert "dispatch" not in {f.name for f in fields(ExperimentPlan)}
    assert not hasattr(Query, "dispatch")


# ---------------------------------------------------------------------------
# suite identity — adaptive cells equal the sorted and bitset cells
# ---------------------------------------------------------------------------
def test_suite_static_vs_adaptive_semantic_identity():
    plan = ExperimentPlan(
        datasets=("sc-ht-mini",),
        kernels=("tc", "tc-merge", "kclique", "4clique", "kstar", "bk"),
        set_classes=("bitset", "adaptive"),
        orderings=("DGR",),
        k=4,
        repeats=1,
    )
    with MiningSession() as session:
        (payload,) = session.run_plan(plan)
    cells = {}
    for cell in strip_timing(payload)["cells"]:
        backend = cell.pop("set_class")
        resolved = cell.pop("resolved_class")
        assert resolved == {"sorted": "SortedSet", "bitset": "BitSet",
                            "adaptive": "AdaptiveSet"}[backend]
        cells.setdefault(backend, []).append(cell)
    assert len(cells["adaptive"]) == len(plan.kernels)
    # Values, counters, work profiles and the cross-check anchor alike.
    assert cells["adaptive"] == cells["sorted"] == cells["bitset"]
