"""Sketch-accelerated mining & learning: correctness and accuracy bounds.

Three guarantees are pinned down here:

1. **Exactness where it must hold** — sketch-pivot Bron–Kerbosch returns
   *exactly* the same maximal-clique set as exact BK for every registered
   approximate backend (hypothesis property over random graphs): the
   estimated ``intersect_count`` only feeds the pivot argmax, and any
   ``u ∈ P ∪ X`` is a valid pivot.
2. **Bounded error where estimates are allowed** — seeded statistical
   accuracy of the ``"jaccard-kmv"`` measure against exact Jaccard (mean
   absolute error at fixed K, improving with K), and of the reconciled
   4-clique recursion against the compounding plain one.
3. **Shared-budget mechanics** — one ``m = m_total / n`` for every
   neighborhood makes all pairs take the popcount estimator path.

All sketch hashing is deterministic (splitmix64), so the statistical tests
are seeded by construction — fixed graph seeds give fixed estimates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import (
    BloomFilterSet,
    KMVSketchSet,
    bloom_set_class,
    kmv_set_class,
    shared_bloom_set_class,
)
from repro.core import BitSet, SortedSet
from repro.learning import (
    effectiveness_loss,
    evaluate_scheme,
    known_measures,
    similarity,
    similarity_all_pairs,
)
from repro.mining import (
    bron_kerbosch,
    kclique_count,
    kclique_count_sets,
)
from tests.conftest import APPROX_SET_CLASSES, random_csr


def canon(cliques):
    return sorted(tuple(sorted(c)) for c in cliques)


#: Registered approximate backends plus deliberately lean budgets — the
#: lean ones force mis-ranked pivots, which must still not change output.
PIVOT_CLASSES = APPROX_SET_CLASSES + [
    bloom_set_class(2, 2, min_bits=64, name="LeanBloom_b2"),
    kmv_set_class(4, name="LeanKMV_k4"),
]


class TestSketchPivotBKExactness:
    @pytest.mark.parametrize(
        "pivot_cls", PIVOT_CLASSES, ids=lambda c: c.__name__
    )
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(0, 220))
    def test_identical_maximal_clique_set(self, pivot_cls, seed, m):
        """Property: sketch pivots never change the enumerated cliques."""
        csr, _ = random_csr(26, m, seed)
        exact = bron_kerbosch(csr, "DGR", BitSet, collect=True)
        sketch = bron_kerbosch(csr, "DGR", BitSet, collect=True,
                               pivot_set_cls=pivot_cls)
        assert canon(sketch.cliques) == canon(exact.cliques)
        assert sketch.num_cliques == exact.num_cliques

    @pytest.mark.parametrize(
        "pivot_cls", APPROX_SET_CLASSES, ids=lambda c: c.__name__
    )
    def test_subgraph_opt_composes_with_sketch_pivot(self, pivot_cls):
        csr, _ = random_csr(40, 260, 7)
        exact = bron_kerbosch(csr, "DGR", BitSet, collect=True)
        sketch = bron_kerbosch(csr, "DGR", BitSet, subgraph_opt=True,
                               collect=True, pivot_set_cls=pivot_cls)
        assert canon(sketch.cliques) == canon(exact.cliques)

    def test_sketch_pivots_move_calls_not_cliques(self):
        csr, _ = random_csr(40, 300, 3)
        exact = bron_kerbosch(csr, "DGR", BitSet, collect=True)
        sketch = bron_kerbosch(csr, "DGR", BitSet, collect=True,
                               pivot_set_cls=KMVSketchSet)
        assert canon(sketch.cliques) == canon(exact.cliques)
        assert sketch.recursive_calls >= exact.recursive_calls >= 1

    def test_variant_name_records_pivot_class(self):
        csr, _ = random_csr(15, 40, 1)
        res = bron_kerbosch(csr, "DGR", BitSet, pivot_set_cls=KMVSketchSet)
        assert res.variant.endswith("-SP[KMVSketchSet]")


class TestJaccardKMVAccuracy:
    """Seeded statistical accuracy of "jaccard-kmv" vs exact Jaccard."""

    @staticmethod
    def _mae(graph, kmv_cls):
        exact = {(u, v): s for u, v, s in similarity_all_pairs(graph, "jaccard")}
        approx = {
            (u, v): s
            for u, v, s in similarity_all_pairs(graph, "jaccard-kmv",
                                                kmv_cls=kmv_cls)
        }
        # Same 2-hop candidate enumeration on both paths.
        assert exact.keys() == approx.keys() and exact
        errs = [abs(exact[p] - approx[p]) for p in exact]
        return sum(errs) / len(errs)

    def test_exact_when_unions_fit_in_signature(self):
        # Degrees ≪ K: the signature is the complete hash set, estimates
        # degenerate to the exact Jaccard.
        csr, _ = random_csr(60, 240, 11)  # mean degree 8 ≪ K=128
        assert self._mae(csr, KMVSketchSet) == 0.0

    def test_mae_within_estimator_bound_at_fixed_k(self):
        # Dense graph (mean degree ≈ 40 > K) so the estimator actually
        # estimates; ρ̂'s standard error is sqrt(ρ(1-ρ)/K) ≤ 0.5/sqrt(K).
        csr, _ = random_csr(150, 3000, 5)
        mae16 = self._mae(csr, kmv_set_class(16))
        assert 0.0 < mae16 < 0.12  # ≈ se bound 0.125, seeded margin

    def test_accuracy_improves_with_signature_size(self):
        csr, _ = random_csr(150, 3000, 5)
        mae8 = self._mae(csr, kmv_set_class(8))
        mae64 = self._mae(csr, kmv_set_class(64))
        assert mae64 <= mae8

    def test_single_pair_similarity_api(self):
        csr, _ = random_csr(30, 120, 2)
        s = similarity(csr, 0, 1, "jaccard-kmv")
        assert 0.0 <= s <= 1.0

    def test_unknown_measure_lists_sketch_names(self):
        csr, _ = random_csr(10, 20, 1)
        with pytest.raises(KeyError, match="jaccard-kmv"):
            similarity(csr, 0, 1, "nope")
        assert "jaccard-kmv" in known_measures()

    def test_linkpred_effectiveness_loss_protocol(self):
        csr, _ = random_csr(120, 1200, 9)
        loss = effectiveness_loss(csr, "jaccard", "jaccard-kmv",
                                  fraction=0.1, seed=4)
        # Default K=128 covers these neighborhoods: the sketch scheme must
        # match exact Jaccard's effectiveness exactly.
        assert loss.approx.removed == loss.exact.removed
        assert loss.loss == pytest.approx(0.0)
        # A starved signature may lose effectiveness but stays a valid run.
        lean = effectiveness_loss(csr, kmv_cls=kmv_set_class(8),
                                  fraction=0.1, seed=4)
        assert 0.0 <= lean.approx.effectiveness <= 1.0
        assert lean.loss >= -1.0

    def test_evaluate_scheme_accepts_sketch_measure(self):
        csr, _ = random_csr(80, 500, 3)
        res = evaluate_scheme(csr, "jaccard-kmv", fraction=0.15, seed=1)
        assert res.measure == "jaccard-kmv"
        assert res.pairs_scored <= res.removed or res.pairs_scored >= 0


class TestSharedBloomBudget:
    def test_every_instance_gets_the_same_filter_size(self):
        cls = shared_bloom_set_class(64 * 1024, 100)
        sizes = {
            cls.from_iterable(range(n)).sketch_bits() for n in (0, 1, 7, 500)
        }
        assert sizes == {cls.SHARED_BITS}
        assert cls.SHARED_BITS == 512  # pow2 floor of 65536/100 = 655

    def test_budget_is_respected_not_exceeded(self):
        for total, n in ((10_000, 13), (1 << 20, 1000), (64 * 7, 7)):
            cls = shared_bloom_set_class(total, n)
            assert cls.SHARED_BITS * n <= max(total, 64 * n)
            assert cls.SHARED_BITS >= 64

    def test_popcount_estimator_path_for_every_pair(self):
        # Disparate set sizes that per-set sizing would give different
        # budgets (probe fallback); the shared class must keep them equal.
        per_set = BloomFilterSet
        a_members = np.arange(4, dtype=np.int64)
        b_members = np.arange(2000, dtype=np.int64)
        assert (per_set.from_sorted_array(a_members)._num_bits
                != per_set.from_sorted_array(b_members)._num_bits)
        shared = shared_bloom_set_class(1 << 22, 256)
        a = shared.from_sorted_array(a_members)
        b = shared.from_sorted_array(b_members)
        assert a._num_bits == b._num_bits
        est = a.intersect_count(b)
        assert 0 <= est <= 4

    def test_add_never_rebuilds_away_from_shared_size(self):
        cls = shared_bloom_set_class(64 * 10, 10)  # 64 bits, tiny
        s = cls.from_iterable(range(8))
        for x in range(100, 200):
            s.add(x)
        assert s.sketch_bits() == cls.SHARED_BITS
        assert s.cardinality() == 108

    def test_factory_validates(self):
        with pytest.raises(ValueError):
            shared_bloom_set_class(32, 4)
        with pytest.raises(ValueError):
            shared_bloom_set_class(1024, 0)
        with pytest.raises(ValueError):
            BloomFilterSet.with_shared_budget(1024, 4, num_hashes=0)

    def test_mining_kernels_run_on_shared_class(self):
        csr, _ = random_csr(80, 600, 6)
        cls = shared_bloom_set_class(256 * 80, 80)
        est = kclique_count_sets(csr, 3, cls, "DGR")
        assert est >= 0


class TestReconciledFourClique:
    def test_reconciliation_bounds_lean_budget_error(self):
        # Lean budget: the plain recursion compounds superset candidate
        # sets level by level; the reconciled one carries a single level
        # of estimator noise, so it can only do better (or tie).
        csr, _ = random_csr(120, 1500, 8)
        lean = bloom_set_class(4, 2, min_bits=64)
        exact = kclique_count(csr, 4, "DGR").count
        plain = kclique_count_sets(csr, 4, lean, "DGR")
        reconciled = kclique_count_sets(csr, 4, lean, "DGR", reconcile=True)
        err = lambda est: abs(est - exact) / max(exact, 1)  # noqa: E731
        assert err(reconciled) <= err(plain) + 1e-9
        # Bloom superset candidates make the plain recursion over-count.
        assert plain >= reconciled

    def test_reconciled_is_exact_for_exact_backends(self):
        csr, _ = random_csr(60, 500, 2)
        exact = kclique_count(csr, 4, "DGR").count
        assert kclique_count_sets(csr, 4, SortedSet, "DGR",
                                  reconcile=True) == exact

    def test_reconciled_matches_plain_for_rich_kmv(self):
        # KMV intersect is exact on member arrays, so both recursions see
        # exact candidates; with K large enough the counts agree too.
        csr, _ = random_csr(50, 350, 4)
        plain = kclique_count_sets(csr, 4, KMVSketchSet, "DGR")
        reconciled = kclique_count_sets(csr, 4, KMVSketchSet, "DGR",
                                        reconcile=True)
        assert plain == reconciled
