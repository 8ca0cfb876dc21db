"""Merge/galloping kernels and the software performance counters."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    COUNTERS,
    Snapshot,
    SortedSet,
    as_sorted_unique,
    intersect_count_galloping,
    intersect_count_merge,
    intersect_galloping,
    intersect_merge,
    member_mask_galloping,
    merge_snapshots,
    reset,
    snapshot,
)

sorted_arrays = st.lists(
    st.integers(min_value=0, max_value=500), max_size=40
).map(lambda xs: np.array(sorted(set(xs)), dtype=np.int64))
element_lists = st.lists(st.integers(min_value=0, max_value=5_000),
                         max_size=80)


@settings(max_examples=60, deadline=None)
@given(a=sorted_arrays, b=sorted_arrays)
def test_galloping_equals_merge(a, b):
    assert np.array_equal(intersect_galloping(a, b), intersect_merge(a, b))
    assert intersect_count_galloping(a, b) == intersect_count_merge(a, b)


@settings(max_examples=80, deadline=None)
@given(a=element_lists, b=element_lists)
def test_merge_kernels_match_numpy(a, b):
    sa = np.unique(np.asarray(a, dtype=np.int64))
    sb = np.unique(np.asarray(b, dtype=np.int64))
    assert np.array_equal(intersect_merge(sa, sb), np.intersect1d(sa, sb))
    assert np.array_equal(intersect_galloping(sa, sb),
                          np.intersect1d(sa, sb))
    expected_count = len(np.intersect1d(sa, sb))
    assert intersect_count_merge(sa, sb) == expected_count
    assert intersect_count_galloping(sa, sb) == expected_count
    assert np.array_equal(member_mask_galloping(sa, sb), np.isin(sa, sb))


@settings(max_examples=60, deadline=None)
@given(a=element_lists)
def test_as_sorted_unique_any_input(a):
    arr = np.asarray(a, dtype=np.int64)
    for variant in (arr, arr[::-1]):
        assert np.array_equal(as_sorted_unique(variant), np.unique(arr))


def test_galloping_skewed_sizes():
    small = np.array([5, 500_000], dtype=np.int64)
    large = np.arange(0, 1_000_000, 5, dtype=np.int64)
    assert intersect_galloping(small, large).tolist() == [5, 500000]


def test_counters_accumulate_and_snapshot():
    reset()
    before = snapshot()
    a = SortedSet.from_iterable([1, 2, 3])
    b = SortedSet.from_iterable([2, 3, 4])
    a.intersect(b)
    a.contains(1)
    after = snapshot()
    delta = before.delta(after)
    assert delta.set_ops == 1
    assert delta.point_ops == 1
    assert delta.elements_read >= 6
    assert delta.memory_traffic == delta.elements_read + delta.elements_written


def test_counters_reset():
    COUNTERS.record_bulk(10, 5)
    reset()
    assert COUNTERS.set_ops == 0
    assert COUNTERS.memory_traffic == 0


# --- Snapshot merging (the parallel suite runner's correctness lemma) ---

snapshots = st.builds(
    Snapshot,
    set_ops=st.integers(0, 10**9),
    point_ops=st.integers(0, 10**9),
    elements_read=st.integers(0, 10**12),
    elements_written=st.integers(0, 10**12),
    sketch_builds=st.integers(0, 10**6),
)


@settings(max_examples=60, deadline=None)
@given(a=snapshots, b=snapshots, c=snapshots)
def test_snapshot_merge_is_associative_and_commutative(a, b, c):
    # These two laws are what make sharded execution safe: however the
    # cells are chunked across workers, and in whatever order the shards
    # complete, the merged totals are the sequential totals.
    assert a.merge(b) == b.merge(a)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))
    assert a.merge(Snapshot.zero()) == a
    assert (a + b).memory_traffic == a.memory_traffic + b.memory_traffic


@settings(max_examples=40, deadline=None)
@given(deltas=st.lists(snapshots, max_size=8),
       split=st.integers(0, 8))
def test_merge_of_shards_equals_sequential_totals(deltas, split):
    # Sequential totals = merge over all per-cell deltas, in order.
    sequential = merge_snapshots(deltas)
    # Sharded totals = per-shard merges, merged (any split point).
    split = min(split, len(deltas))
    sharded = merge_snapshots(
        [merge_snapshots(deltas[:split]), merge_snapshots(deltas[split:])]
    )
    assert sharded == sequential
    # The set-op and sketch_builds fields the suite artifact reports:
    assert sequential.set_ops == sum(d.set_ops for d in deltas)
    assert sequential.sketch_builds == sum(d.sketch_builds for d in deltas)


@settings(max_examples=20, deadline=None)
@given(a=snapshots, b=snapshots)
def test_absorb_folds_worker_deltas_into_the_global_block(a, b):
    reset()
    COUNTERS.absorb(a)
    COUNTERS.absorb(b)
    assert snapshot() == a.merge(b)
    reset()
