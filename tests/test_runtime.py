"""Work–depth tracker, scheduler simulation, PAPI facade, metrics."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SortedSet
from repro.platform import parallel_reorder_seconds
from repro.platform.bench import ROUND_SYNC_SECONDS
from repro.runtime import (
    PAPIW,
    Span,
    StallModel,
    WorkDepthTracker,
    algorithmic_throughput,
    peak_memory_bytes,
    simulate_makespan,
    speedup_curve,
    timed_tasks,
)

task_lists = st.lists(
    st.floats(min_value=0.001, max_value=10.0, allow_nan=False), min_size=1,
    max_size=40,
)


class TestWorkDepth:
    def test_sequential_accumulates_both(self):
        t = WorkDepthTracker()
        t.sequential(5)
        t.sequential(3)
        rep = t.report()
        assert rep.work == 8 and rep.depth == 8

    def test_parallel_for_depth_is_max_plus_log(self):
        t = WorkDepthTracker()
        t.parallel_for([1, 2, 7])
        rep = t.report()
        assert rep.work == 10
        assert rep.depth == pytest.approx(7 + math.log2(4))
        assert rep.num_tasks == 3

    def test_runtime_estimate_brent(self):
        t = WorkDepthTracker()
        t.parallel_for([1.0] * 100)
        rep = t.report()
        assert rep.runtime_estimate(1) >= rep.runtime_estimate(10)
        assert rep.runtime_estimate(10) >= rep.depth
        assert rep.speedup_estimate(16) <= 16.0
        with pytest.raises(ValueError):
            rep.runtime_estimate(0)

    def test_parallel_rounds(self):
        t = WorkDepthTracker()
        t.parallel_rounds([[1, 1], [2]])
        assert t.report().num_tasks == 3


class TestScheduler:
    @settings(max_examples=30, deadline=None)
    @given(tasks=task_lists, p=st.integers(1, 32))
    def test_makespan_bounds(self, tasks, p):
        """Greedy schedules satisfy max(W/p, max_task) ≤ T ≤ W/p + max."""
        total = sum(tasks)
        longest = max(tasks)
        for policy in ("static", "dynamic", "stealing"):
            t = simulate_makespan(tasks, p, policy)
            overhead = 0.06 * (total / len(tasks)) * len(tasks)  # stealing pad
            assert t >= total / p - 1e-9
            assert t >= longest - 1e-9 or policy == "static"
            assert t <= total + overhead + 1e-9

    def test_single_thread_is_total(self):
        assert simulate_makespan([1, 2, 3], 1) == 6

    def test_dynamic_beats_static_on_skew(self):
        tasks = [10.0] + [0.1] * 39
        assert simulate_makespan(tasks, 4, "dynamic") <= simulate_makespan(
            tasks, 4, "static"
        )

    def test_stealing_pays_more_overhead_than_dynamic(self):
        tasks = [1.0] * 64
        assert simulate_makespan(tasks, 8, "stealing") >= simulate_makespan(
            tasks, 8, "dynamic"
        )

    def test_empty_tasks(self):
        assert simulate_makespan([], 4) == 0.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            simulate_makespan([1], 0)
        with pytest.raises(ValueError):
            simulate_makespan([1], 2, "bogus")

    def test_speedup_curve_monotone(self):
        tasks = [1.0] * 128
        curve = speedup_curve(tasks, [1, 2, 4, 8])
        assert curve[0] == pytest.approx(1.0, rel=0.05)
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))

    def test_amdahl_fraction_caps_speedup(self):
        tasks = [1.0] * 64
        capped = speedup_curve(tasks, [64], sequential_fraction=1.0)[0]
        assert capped < 2.1  # ~2x max with 50% sequential


class TestPAPI:
    def test_start_stop_records_set_ops(self):
        PAPIW.INIT_PARALLEL()
        PAPIW.START()
        a = SortedSet.from_iterable(range(100))
        b = SortedSet.from_iterable(range(50, 150))
        a.intersect(b)
        m = PAPIW.STOP()
        assert m.set_ops >= 1
        assert m.memory_traffic > 0
        assert m.wall_seconds >= 0
        assert PAPIW.last() is m

    def test_stop_without_start(self):
        PAPIW.INIT_PARALLEL()
        with pytest.raises(RuntimeError):
            PAPIW.STOP()

    def test_stall_model_monotone_in_threads(self):
        from repro.runtime.papi import Measurement

        m = Measurement(10, 10, 100_000, 50_000, 0.1)
        model = StallModel()
        prev_count, prev_ratio = 0.0, 0.0
        for p in (1, 2, 4, 8, 16, 32):
            count, ratio = model.stalled_cycles(m, p)
            assert count >= prev_count
            assert ratio >= prev_ratio
            assert 0 <= ratio < 1
            prev_count, prev_ratio = count, ratio

    def test_runtime_scale_flattens(self):
        from repro.runtime.papi import Measurement

        m = Measurement(10, 10, 100_000, 50_000, 0.1)
        model = StallModel(bandwidth_knee=4)
        s8 = model.runtime_scale(m, 8)
        s32 = model.runtime_scale(m, 32)
        # Beyond the knee extra threads barely help.
        assert s8 / s32 < 2.5


class TestMetrics:
    def test_span_meters_one_set_operation(self):
        a = SortedSet.from_sorted_array(np.array([1, 2, 3, 5]))
        b = SortedSet.from_sorted_array(np.array([2, 3, 4, 5]))
        with Span() as span:
            assert a.intersect_count(b) == 3
        assert span.counters.set_ops == 1
        assert span.counters.elements_read == 8
        assert span.seconds >= 0

    def test_timed_tasks_sums_values_and_times_each_task(self):
        groups = [iter([1, 2]), iter([]), iter([3])]
        total, costs, seconds = timed_tasks(groups)
        assert total == 6
        assert len(costs) == 3
        assert all(c >= 0 for c in costs) and seconds >= sum(costs)

    def test_nested_spans_each_see_their_own_block(self):
        a = SortedSet.from_sorted_array(np.array([1, 2, 3, 5]))
        b = SortedSet.from_sorted_array(np.array([2, 3, 4, 5]))
        with Span() as outer:
            a.intersect_count(b)
            inner = Span().start()
            a.intersect_count(b)
            inner.stop()
        assert inner.counters.set_ops == 1
        assert outer.counters.set_ops == 2
        assert outer.seconds >= inner.seconds

    def test_timed_tasks_keeps_group_builds_out_of_every_task(self):
        def groups():
            for value in (1, 2):
                time.sleep(0.03)
                yield iter([value, value])

        total, costs, seconds = timed_tasks(groups())
        assert total == 6
        assert len(costs) == 4
        assert max(costs) < 0.03
        assert seconds >= 0.06

    def test_throughput(self):
        assert algorithmic_throughput(100, 2.0) == 50.0
        assert algorithmic_throughput(0, 0.0) == 0.0
        assert algorithmic_throughput(5, 0.0) == float("inf")

    def test_peak_memory(self):
        result, peak = peak_memory_bytes(lambda: np.zeros(300_000))
        assert peak >= 300_000 * 8
        assert len(result) == 300_000


class TestSchedulerInvariants:
    """Hypothesis invariants for simulate_makespan (beyond the examples)."""

    @settings(max_examples=40, deadline=None)
    @given(tasks=task_lists, p=st.integers(2, 48))
    def test_dynamic_policies_non_increasing_in_threads(self, tasks, p):
        """More workers never hurt a greedy heap schedule (p ≥ 2)."""
        for policy in ("dynamic", "stealing"):
            assert (
                simulate_makespan(tasks, p + 1, policy)
                <= simulate_makespan(tasks, p, policy) + 1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(tasks=task_lists, p=st.integers(2, 48))
    def test_dynamic_vs_single_thread_within_overhead(self, tasks, p):
        """Going 1 → p threads can only add per-grab overhead, never work."""
        base = simulate_makespan(tasks, 1)
        for policy, frac in (("dynamic", 0.01), ("stealing", 0.05)):
            slack = frac * (sum(tasks) / len(tasks)) * len(tasks)
            assert simulate_makespan(tasks, p, policy) <= base + slack + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(tasks=task_lists, p=st.integers(1, 48))
    def test_every_policy_at_least_max_task_and_mean_load(self, tasks, p):
        """Makespan ≥ longest single task and ≥ work/p — all policies.

        (The longest task bound holds for static too: chunks are contiguous
        supersets of single tasks.)
        """
        total, longest = sum(tasks), max(tasks)
        for policy in ("static", "dynamic", "stealing"):
            t = simulate_makespan(tasks, p, policy)
            assert t >= longest - 1e-12
            assert t >= total / p - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(tasks=task_lists, p=st.integers(1, 48))
    def test_static_never_exceeds_serial_total(self, tasks, p):
        """Static pays no overhead, so it can never exceed one worker's
        serial execution (but it is *not* monotone in p — contiguous
        chunking can split a heavy region worse at higher p, which is why
        the monotonicity invariant above is asserted only for the greedy
        policies)."""
        assert simulate_makespan(tasks, p, "static") <= sum(tasks) + 1e-12


class TestParallelReorderInvariants:
    """Hypothesis invariants for the reordering-phase parallel model."""

    seqs = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)

    @settings(max_examples=40, deadline=None)
    @given(seq=seqs, rounds=st.integers(1, 64), p=st.integers(1, 127))
    def test_non_increasing_in_threads(self, seq, rounds, p):
        for ordering in ("DGR", "ADG", "DEG", "TRI"):
            a = parallel_reorder_seconds(ordering, seq, rounds, p)
            b = parallel_reorder_seconds(ordering, seq, rounds, p + 1)
            assert b <= a + 1e-15

    @settings(max_examples=40, deadline=None)
    @given(seq=seqs, rounds=st.integers(1, 64), p=st.integers(1, 256))
    def test_dgr_is_sequential_chain(self, seq, rounds, p):
        """Exact peeling has no parallel speedup — the ADG motivation."""
        assert parallel_reorder_seconds("DGR", seq, rounds, p) == seq

    @settings(max_examples=40, deadline=None)
    @given(seq=seqs, rounds=st.integers(1, 64), p=st.integers(1, 256))
    def test_adg_bounds(self, seq, rounds, p):
        """ADG: W/p plus one sync per round, bounded by the serial time
        plus sync and floored by the round synchronization alone."""
        t = parallel_reorder_seconds("ADG", seq, rounds, p)
        assert t >= rounds * ROUND_SYNC_SECONDS
        assert t >= seq / p
        assert t <= seq + rounds * ROUND_SYNC_SECONDS + 1e-15

    @settings(max_examples=40, deadline=None)
    @given(seq=seqs, rounds=st.integers(1, 64), p=st.integers(1, 256))
    def test_single_sort_orderings_pay_one_sync(self, seq, rounds, p):
        for ordering in ("DEG", "TRI", "ID"):
            t = parallel_reorder_seconds(ordering, seq, rounds, p)
            assert t == seq / p + ROUND_SYNC_SECONDS

    @settings(max_examples=40, deadline=None)
    @given(seq=seqs, rounds=st.integers(1, 64), p=st.integers(1, 256))
    def test_more_rounds_never_cheaper(self, seq, rounds, p):
        a = parallel_reorder_seconds("ADG", seq, rounds, p)
        b = parallel_reorder_seconds("ADG", seq, rounds + 1, p)
        assert b >= a

    def test_invalid_threads_rejected(self):
        with pytest.raises(ValueError):
            parallel_reorder_seconds("ADG", 1.0, 4, 0)
        with pytest.raises(ValueError):
            parallel_reorder_seconds("DGR", 1.0, 4, -1)
