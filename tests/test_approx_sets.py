"""Statistical accuracy tests for the approximate set backends.

Sketch estimators are random variables; these tests pin them down the way
ProbGraph's evaluation does — with seeded-RNG trial sweeps asserting that
the estimate lands within the theoretical error bound on at least 95% of
trials — plus hard guarantees (zero false negatives, clamping ranges) that
must hold on *every* trial.  All randomness is seeded and the hash
functions are deterministic, so these tests are reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx import (
    BloomFilterSet,
    KMVSketchSet,
    bloom_false_positive_rate,
    bloom_intersection_stddev,
    bloom_set_class,
    kmv_relative_stderr,
    kmv_set_class,
)
from repro.graph.generators import holme_kim
from repro.core import SortedSet
from repro.graph import MaterializationCache, load_dataset
from repro.mining import (
    kclique_count,
    kclique_count_sets,
    triangle_count_node_iterator,
    triangle_count_rank_merge,
)

TRIALS = 100


# ----------------------------------------------------------------------
# Hard (every-trial) guarantees
# ----------------------------------------------------------------------
class TestBloomGuarantees:
    def test_contains_has_zero_false_negatives(self):
        rng = np.random.default_rng(11)
        for _ in range(TRIALS):
            n = int(rng.integers(1, 500))
            members = rng.choice(1_000_000, n, replace=False)
            s = BloomFilterSet.from_iterable(members.tolist())
            mask = s._probe(np.sort(members.astype(np.int64)))
            assert bool(mask.all()), "Bloom filter dropped a member"

    def test_false_positive_rate_is_near_theory(self):
        cls = bloom_set_class(8, 3, min_bits=64)
        rng = np.random.default_rng(12)
        members = rng.choice(100_000, 1000, replace=False)
        s = cls.from_iterable(members.tolist())
        probes = np.setdiff1d(np.arange(100_000, 200_000, dtype=np.int64), members)
        observed = s._probe(probes).mean()
        predicted = bloom_false_positive_rate(1000, s.sketch_bits(), 3)
        assert observed <= 3 * predicted + 0.01

    def test_intersection_count_is_always_clamped(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.choice(10_000, int(rng.integers(1, 300)), replace=False)
            b = rng.choice(10_000, int(rng.integers(1, 300)), replace=False)
            sa = BloomFilterSet.from_iterable(a.tolist())
            sb = BloomFilterSet.from_iterable(b.tolist())
            assert 0 <= sa.intersect_count(sb) <= min(len(a), len(b))
            assert max(len(set(a)), len(set(b))) <= sa.union_count(sb)
            assert 0 <= sa.diff_count(sb) <= len(a)

    def test_mixed_filter_sizes_use_probe_path(self):
        # A hub neighborhood (large m) against a tiny one (small m): the
        # small side probes the hub's filter, so the estimate can only
        # overshoot by the hub filter's false-positive rate.
        small = BloomFilterSet.from_iterable(range(10))
        large = BloomFilterSet.from_iterable(range(5, 4000))
        assert small.sketch_bits() < large.sketch_bits()
        est = small.intersect_count(large)
        assert 5 <= est <= 10  # true overlap is 5; probes never miss members
        assert est - 5 <= 2  # FP rate at b=32, k=4 is ~2e-4
        assert large.intersect_count(small) == est  # symmetric dispatch

    def test_mixed_budgets_probe_the_cleaner_filter(self):
        # A lean-budget set with MORE members against a rich-budget set
        # with fewer: naive smaller-side probing would hit the lean filter
        # (high FP rate) and overshoot badly; the dispatch must minimize
        # FPR(target) × n(probed) and probe into the rich filter instead.
        lean = bloom_set_class(4, 4, min_bits=64)
        rich = bloom_set_class(64, 4, min_bits=64)
        a = lean.from_iterable(range(2000))
        b = rich.from_iterable(range(1900, 2400))
        est = a.intersect_count(b)
        assert abs(est - 100) <= 3  # true overlap is 100
        assert b.intersect_count(a) == est


class TestKMVGuarantees:
    def test_small_sets_are_exact(self):
        # When |A ∪ B| < K both signatures are complete hash sets and every
        # estimate collapses to the exact count.
        cls = kmv_set_class(256)
        rng = np.random.default_rng(14)
        for _ in range(20):
            a = rng.choice(10_000, int(rng.integers(1, 100)), replace=False)
            b = rng.choice(10_000, int(rng.integers(1, 100)), replace=False)
            sa = cls.from_iterable(a.tolist())
            sb = cls.from_iterable(b.tolist())
            assert sa.intersect_count(sb) == len(np.intersect1d(a, b))
            assert sa.union_count(sb) == len(np.union1d(a, b))

    def test_contains_is_exact(self):
        s = KMVSketchSet.from_iterable([2, 4, 6])
        assert s.contains(4) and not s.contains(5)


class TestGenericApproxContract:
    """Invariants every registered approximate backend must satisfy —
    parametrized over the registry so future sketch classes are held to
    the same contract automatically."""

    def test_count_clamps_and_member_store(self, approx_set_cls):
        rng = np.random.default_rng(15)
        a = rng.choice(50_000, 400, replace=False)
        b = np.concatenate([a[:100], rng.choice(50_000, 300) + 50_000])
        sa = approx_set_cls.from_iterable(a.tolist())
        sb = approx_set_cls.from_iterable(b.tolist())
        n_a, n_b = sa.cardinality(), sb.cardinality()
        assert n_a == len(set(a.tolist())) and n_b == len(set(b.tolist()))
        assert 0 <= sa.intersect_count(sb) <= min(n_a, n_b)
        assert max(n_a, n_b) <= sa.union_count(sb) <= n_a + n_b
        assert 0 <= sa.diff_count(sb) <= n_a
        # No false negatives on own members, ever.
        for x in a[:50].tolist():
            assert sa.contains(x)
        assert sa.sketch_bits() > 0


# ----------------------------------------------------------------------
# Statistical (>= 95% of trials) bounds
# ----------------------------------------------------------------------
class TestBloomAccuracy:
    def test_intersect_count_within_bound_95pct(self):
        cls = bloom_set_class(16, 4, min_bits=64)
        rng = np.random.default_rng(21)
        n, overlap = 256, 64
        hits = 0
        for _ in range(TRIALS):
            a = rng.choice(100_000, n, replace=False)
            tail = rng.choice(np.arange(100_000, 200_000), n - overlap, replace=False)
            b = np.concatenate([rng.choice(a, overlap, replace=False), tail])
            sa, sb = cls.from_iterable(a.tolist()), cls.from_iterable(b.tolist())
            sigma = bloom_intersection_stddev(n, n, sa.sketch_bits())
            if abs(sa.intersect_count(sb) - overlap) <= 3 * sigma + 1:
                hits += 1
        assert hits >= 95, f"only {hits}/{TRIALS} within 3 sigma"


class TestKMVAccuracy:
    def test_cardinality_estimate_within_bound_95pct(self):
        k = 256
        cls = kmv_set_class(k)
        rng = np.random.default_rng(22)
        n = 5000
        bound = 2.5 * kmv_relative_stderr(k)  # ≈ 2.5 / sqrt(k - 2)
        hits = 0
        for _ in range(TRIALS):
            values = rng.choice(10_000_000, n, replace=False)
            s = cls.from_iterable(values.tolist())
            rel_err = abs(s.cardinality_estimate() - n) / n
            if rel_err <= bound:
                hits += 1
        assert hits >= 95, f"only {hits}/{TRIALS} within bound {bound:.3f}"

    def test_intersect_count_within_bound_95pct(self):
        k = 256
        cls = kmv_set_class(k)
        rng = np.random.default_rng(23)
        n, overlap = 2048, 512
        hits, rel_errs = 0, []
        for _ in range(TRIALS):
            a = rng.choice(1_000_000, n, replace=False)
            tail = rng.choice(np.arange(1_000_000, 2_000_000), n - overlap,
                              replace=False)
            b = np.concatenate([rng.choice(a, overlap, replace=False), tail])
            sa, sb = cls.from_iterable(a.tolist()), cls.from_iterable(b.tolist())
            rel_err = abs(sa.intersect_count(sb) - overlap) / overlap
            rel_errs.append(rel_err)
            # Jaccard proportion error (~sqrt(rho(1-rho)/k)/rho) plus the
            # union cardinality error, 2.5 sigma each, conservatively added.
            rho = overlap / (2 * n - overlap)
            bound = 2.5 * (
                np.sqrt(rho * (1 - rho) / k) / rho + kmv_relative_stderr(k)
            )
            if rel_err <= bound:
                hits += 1
        assert hits >= 95, f"only {hits}/{TRIALS} within bound"
        assert float(np.mean(rel_errs)) <= 0.25


# ----------------------------------------------------------------------
# Kernels run unmodified on the approximate backends (acceptance)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def synth_1k():
    return holme_kim(1000, 6, 0.5, seed=7)


class TestApproxKernels:
    def test_triangle_count_bloom_within_10pct(self, synth_1k):
        exact = triangle_count_rank_merge(synth_1k)
        estimate = triangle_count_node_iterator(synth_1k, set_cls=BloomFilterSet)
        assert exact > 0
        assert abs(estimate - exact) / exact <= 0.10

    def test_triangle_count_kmv_within_10pct(self, synth_1k):
        exact = triangle_count_rank_merge(synth_1k)
        estimate = triangle_count_node_iterator(synth_1k, set_cls=KMVSketchSet)
        assert abs(estimate - exact) / exact <= 0.10

    def test_kclique_sets_matches_exact_backend(self, synth_1k):
        expected = kclique_count(synth_1k, 4, "DGR").count
        assert kclique_count_sets(synth_1k, 4, SortedSet, "DGR") == expected

    def test_approx_four_clique_within_bound(self, synth_1k):
        exact = kclique_count(synth_1k, 4, "DGR").count
        estimate = kclique_count_sets(synth_1k, 4, BloomFilterSet)
        assert abs(estimate - exact) / exact <= 0.15

    def test_four_clique_kmv_is_exact_on_small_neighborhoods(self, synth_1k):
        # Oriented neighborhoods here are far below K=128, so KMV sketches
        # are complete and the estimate collapses to the exact count.
        exact = kclique_count(synth_1k, 4, "DGR").count
        assert kclique_count_sets(synth_1k, 4, KMVSketchSet) == exact

    @pytest.mark.parametrize("reconcile", [False, True])
    def test_kclique_sets_shares_the_adg_materializations(self, reconcile):
        # Ordered at kclique_count's eps, the set-algebra recursion finds
        # the ADG ordering and the exact DAG already in a shared cache.
        graph = load_dataset("sc-ht-mini")
        cache = MaterializationCache()
        expected = kclique_count(graph, 4, "ADG", cache=cache).count
        misses = cache.misses
        assert kclique_count_sets(graph, 4, SortedSet, "ADG",
                                  reconcile=reconcile, cache=cache) == expected
        assert cache.misses == misses


# ----------------------------------------------------------------------
# Budget factories
# ----------------------------------------------------------------------
class TestFactories:
    def test_bloom_budget_shapes_the_filter(self):
        lean = bloom_set_class(4, 2, min_bits=64)
        rich = bloom_set_class(64, 6, min_bits=64)
        members = list(range(100))
        assert lean.from_iterable(members).sketch_bits() < (
            rich.from_iterable(members).sketch_bits()
        )
        assert lean.BITS_PER_ELEMENT == 4 and lean.NUM_HASHES == 2
        assert not lean.IS_EXACT

    def test_kmv_k_bounds_signature(self):
        cls = kmv_set_class(16)
        s = cls.from_iterable(range(1000))
        assert s.sketch_bits() == 16 * 64
        assert s.cardinality() == 1000  # member store stays exact

    def test_factories_reject_bad_budgets(self):
        with pytest.raises(ValueError):
            bloom_set_class(0)
        with pytest.raises(ValueError):
            bloom_set_class(8, 0)
        with pytest.raises(ValueError):
            kmv_set_class(2)

    def test_factories_give_one_class_per_budget(self):
        assert (BloomFilterSet.with_budget(8)
                is BloomFilterSet.with_budget(bits_per_element=8)
                is bloom_set_class(8, 4, 1024))
        assert (BloomFilterSet.with_budget(8)
                is not BloomFilterSet.with_budget(8, num_hashes=3))
        # Totals that floor to the same filter size share the class.
        shared = BloomFilterSet.with_shared_budget(1024, 4)
        assert shared.SHARED_BITS == 256
        assert BloomFilterSet.with_shared_budget(1100, 4) is shared
        assert BloomFilterSet.with_shared_budget(2048, 4) is not shared
        assert KMVSketchSet.with_k(16) is KMVSketchSet.with_k(k=16)
        assert kmv_set_class(16, name="Named") is not KMVSketchSet.with_k(16)
        # Deriving from a derived class keeps deriving from that class.
        lean = bloom_set_class(4, 2, min_bits=64)
        assert lean.with_budget(8) is lean.with_budget(8)
        assert issubclass(lean.with_budget(8), lean)

    def test_jaccard_estimate_tracks_truth(self):
        cls = kmv_set_class(256)
        rng = np.random.default_rng(31)
        a = rng.choice(100_000, 2000, replace=False)
        b = np.concatenate([
            rng.choice(a, 1000, replace=False),
            rng.choice(np.arange(100_000, 200_000), 1000, replace=False),
        ])
        sa, sb = cls.from_iterable(a.tolist()), cls.from_iterable(b.tolist())
        true_j = len(np.intersect1d(a, b)) / len(np.union1d(a, b))
        assert abs(sa.jaccard_estimate(sb) - true_j) <= 0.1
