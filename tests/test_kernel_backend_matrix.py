"""Kernel × backend equivalence matrix and the materialization layer.

The set-centric unification's contract, pinned registry-driven (classes
come from :func:`repro.core.registered_set_classes` via the conftest
fixtures, so newly registered backends join automatically):

1. **Exact equivalence** — every refactored mining kernel returns the
   *identical* count under every exact set representation (SortedSet /
   BitSet / Roaring / Hash / Compressed): the kernels speak only the
   ``SetBase`` algebra, so the representation cannot change the answer.
2. **Bounded error** — under the approximate backends (``"bloom"`` /
   ``"kmv"`` at their default budgets) the same unmodified kernels return
   estimates within a measured relative-error envelope.
3. **Cache invariance** — the :class:`~repro.graph.MaterializationCache`
   layer returns shared objects on hits and never changes any kernel's
   output.
4. **Incremental pivot sketches** — sketch-pivot Bron–Kerbosch builds its
   ``P`` sketch once per outer vertex and maintains it incrementally; the
   ``sketch_builds`` op counter must scale with ``n``, not with the number
   of recursive calls (the op-counter regression for the ROADMAP
   follow-up).
"""

from __future__ import annotations

import warnings

import networkx as nx
import numpy as np
import pytest

from repro.core import BitSet, SortedSet
from repro.core.counters import (
    COUNTERS,
    Snapshot,
    reset as reset_counters,
    snapshot,
)
from repro.graph import (
    MaterializationCache,
    build_oriented_set_graph,
    build_set_graph,
    orient_by_rank,
)
from repro.mining import (
    bron_kerbosch,
    danisch_kclique_count,
    gbbs_kclique_count,
    kclique_count,
    kclique_count_sets,
    kclique_list,
    kclique_star_count,
    triangle_count_node_iterator,
    triangle_count_rank_merge,
)
from repro.preprocess.ordering import compute_ordering
from tests.conftest import APPROX_SET_CLASSES, random_csr

#: The refactored kernels, each behind a uniform (graph, cls, cache) -> int
#: runner.  This is the kernel axis of the equivalence matrix; the backend
#: axis comes from the registry fixtures.
KERNEL_RUNNERS = {
    "tc-node": lambda g, cls, cache: triangle_count_node_iterator(
        g, set_cls=cls, cache=cache),
    "tc-merge": lambda g, cls, cache: triangle_count_rank_merge(
        g, set_cls=cls, cache=cache),
    "4clique-edge": lambda g, cls, cache: kclique_count(
        g, 4, "DGR", "edge", set_cls=cls, cache=cache).count,
    "4clique-node": lambda g, cls, cache: kclique_count(
        g, 4, "DGR", "node", set_cls=cls, cache=cache).count,
    "5clique-adg": lambda g, cls, cache: kclique_count(
        g, 5, "ADG", "edge", set_cls=cls, cache=cache).count,
    "kstar": lambda g, cls, cache: kclique_star_count(
        g, 3, set_cls=cls, cache=cache),
    "gbbs": lambda g, cls, cache: gbbs_kclique_count(
        g, 4, set_cls=cls, cache=cache).count,
    "danisch": lambda g, cls, cache: danisch_kclique_count(
        g, 4, set_cls=cls, cache=cache).count,
    "kclique-sets": lambda g, cls, cache: kclique_count_sets(
        g, 4, cls, "DGR", cache=cache),
    "4clique-rec": lambda g, cls, cache: kclique_count_sets(
        g, 4, cls, "DGR", reconcile=True, cache=cache),
}


@pytest.fixture(scope="module")
def matrix_graph():
    csr, G = random_csr(40, 220, 23)
    return csr, G


def warm_pass(runner, csr, cls):
    """``(value, counter units)`` of a kernel pass on a warm cache.

    The units are the backend-independent ones (module docstring of
    :mod:`repro.core.counters`); materialization stays outside the pass.
    """
    cache = MaterializationCache()
    runner(csr, cls, cache)
    before = snapshot()
    value = runner(csr, cls, cache)
    delta = before.delta(snapshot())
    return value, (delta.set_ops, delta.point_ops, delta.elements_read,
                   delta.elements_written)


@pytest.fixture(scope="module")
def reference_passes(matrix_graph):
    """SortedSet is the reference backend; every exact class must match."""
    csr, _ = matrix_graph
    return {
        name: warm_pass(runner, csr, SortedSet)
        for name, runner in KERNEL_RUNNERS.items()
    }


@pytest.fixture(scope="module")
def reference_counts(reference_passes):
    return {name: value for name, (value, _) in reference_passes.items()}


class TestExactEquivalence:
    @pytest.mark.parametrize("kernel", sorted(KERNEL_RUNNERS))
    def test_identical_counts_across_exact_backends(
        self, kernel, set_cls, matrix_graph, reference_passes
    ):
        # Counters too: a backend's bulk fast path (BitSet's
        # intersect_count_many) must account what SortedSet's
        # per-operation loop does, inside every kernel that issues it.
        csr, _ = matrix_graph
        got = warm_pass(KERNEL_RUNNERS[kernel], csr, set_cls)
        assert got == reference_passes[kernel]

    def test_reference_agrees_with_networkx(self, matrix_graph):
        csr, G = matrix_graph
        cache = MaterializationCache()
        expect_tc = sum(nx.triangles(G).values()) // 3
        assert KERNEL_RUNNERS["tc-node"](csr, SortedSet, cache) == expect_tc
        assert KERNEL_RUNNERS["tc-merge"](csr, SortedSet, cache) == expect_tc
        expect_4c = sum(
            1 for c in nx.enumerate_all_cliques(G) if len(c) == 4
        )
        for kernel in ("4clique-edge", "4clique-node", "gbbs", "danisch",
                       "kclique-sets", "4clique-rec"):
            assert KERNEL_RUNNERS[kernel](csr, SortedSet, cache) == expect_4c

    def test_no_raw_numpy_set_ops_in_algorithm_layers(self):
        """The acceptance criterion, pinned via the GMS001 analyzer rule
        (alias-aware, so renamed imports cannot evade it — the weakness
        of the string grep this replaces): candidate-set work in
        ``mining/``, ``learning/``, and ``optimization/`` goes through
        SetBase, never through numpy's raw array set routines — in every
        layer, with nothing grandfathered by the committed baseline."""
        import pathlib

        import repro.learning
        import repro.mining
        import repro.optimization
        from repro.analysis import Baseline, analyze_paths
        from repro.analysis.cli import DEFAULT_BASELINE_NAME, find_repo_root

        layers = {
            module.__name__.rsplit(".", 1)[-1]:
                pathlib.Path(module.__file__).parent
            for module in (repro.mining, repro.learning, repro.optimization)
        }
        root = find_repo_root(pathlib.Path(__file__).resolve().parent)
        findings = analyze_paths(sorted(layers.values()), root,
                                 select=["GMS001"])
        assert [f for f in findings if "/mining/" in f.path] == []
        baseline = Baseline.load(root / DEFAULT_BASELINE_NAME)
        new, grandfathered = baseline.partition(findings)
        assert new == [], (
            "new raw numpy set-op usage in the algorithm layers:\n"
            + "\n".join(f.format_text() for f in new)
        )
        # No grandfathered debt: nothing may hide behind the baseline.
        assert grandfathered == []
        assert findings == []


class TestBoundedErrorUnderSketches:
    @pytest.mark.parametrize("kernel", sorted(KERNEL_RUNNERS))
    def test_default_budget_estimates_stay_close(
        self, kernel, approx_set_cls, matrix_graph, reference_counts
    ):
        """Default sketch budgets are rich at this scale: estimates must
        land within a 10% envelope of the exact reference (and the
        hashing is deterministic, so this is a seeded statistical test,
        not a flaky one)."""
        csr, _ = matrix_graph
        got = KERNEL_RUNNERS[kernel](csr, approx_set_cls,
                                     MaterializationCache())
        exact = reference_counts[kernel]
        assert abs(got - exact) / max(exact, 1) <= 0.10

    def test_lean_bloom_still_bounded_by_candidates(self, matrix_graph):
        """Bloom intersects yield supersets: a lean budget may over-count,
        but the 4-clique estimate can never exceed the count over full
        neighborhoods (every candidate still comes from a real arc)."""
        from repro.approx import bloom_set_class

        csr, _ = matrix_graph
        lean = bloom_set_class(2, 2, min_bits=64, name="LeanMatrixBloom")
        est = kclique_count_sets(csr, 4, lean, "DGR")
        exact = kclique_count(csr, 4, "DGR").count
        assert est >= 0
        # Reconciliation bounds the compounding: one estimator level only.
        rec = kclique_count_sets(csr, 4, lean, "DGR", reconcile=True)
        assert abs(rec - exact) <= abs(est - exact) + max(1, exact // 10)


class TestReconciledSuiteKernel:
    """The suite's ``4clique-rec`` cell is the reconciled recursion:
    equal to it on every registered class, and to the exact count on the
    exact ones, under both orderings the suite sweeps by default.  On an
    exact class reconciling changes nothing: the counters are the plain
    recursion's, and no ``SortedSet`` twin of the DAG is built."""

    @pytest.mark.parametrize("ordering", ["DGR", "ADG"])
    def test_equals_the_reconciled_recursion(self, matrix_graph,
                                             any_set_cls, ordering):
        from repro.platform.suite import SUITE_KERNELS, ExperimentPlan

        csr, _ = matrix_graph
        plan = ExperimentPlan()
        cache = MaterializationCache()
        got = SUITE_KERNELS["4clique-rec"].runner(
            csr, any_set_cls, ordering, plan, cache)
        assert got == kclique_count_sets(csr, 4, any_set_cls, ordering,
                                         reconcile=True, eps=plan.eps)
        if any_set_cls.IS_EXACT:
            assert got == kclique_count(csr, 4, ordering).count
            assert cache.stats()["oriented"] == 1
            runs = []
            for reconcile in (True, False):
                before = snapshot()
                runs.append((kclique_count_sets(
                    csr, 4, any_set_cls, ordering, reconcile=reconcile,
                    eps=plan.eps, cache=cache), before.delta(snapshot())))
            assert runs[0] == runs[1]


def _kclist_per_op(dag, k):
    """The per-operation kClist recursion over a set DAG: a fresh
    ``intersect`` per candidate, one ``intersect_count`` per vertex of
    the last candidate sets, and no set operation at all for ``k = 2``."""
    def rec(i, cand):
        total = 0
        for v in cand:
            if i + 1 == k:
                total += cand.intersect_count(dag[v])
            else:
                total += rec(i + 1, cand.intersect(dag[v]))
        return total

    if k == 2:
        return sum(dag.out_degree(v) for v in dag.vertices())
    return sum(rec(2, dag[u]) for u in dag.vertices())


class TestKcliqueCountSets:
    """The unreconciled path is ``Σ_u N⁺(u).clique_count(dag, k - 1)``:
    the value and every counter of the per-operation recursion, on every
    backend, sketches included (there the estimates compound through the
    superset candidate sets of a lean Bloom budget)."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_equals_the_per_operation_recursion(self, matrix_graph,
                                                any_set_cls, k):
        from repro.approx import bloom_set_class

        csr, _ = matrix_graph
        for cls in (any_set_cls, bloom_set_class(4, 2, min_bits=64)):
            cache = MaterializationCache()
            _, dag = cache.oriented(csr, cls, "DGR")
            misses = cache.misses
            runs = []
            for count in (lambda: kclique_count_sets(csr, k, cls, "DGR",
                                                     cache=cache),
                          lambda: _kclist_per_op(dag, k)):
                before = snapshot()
                runs.append((count(), before.delta(snapshot())))
            assert runs[0] == runs[1], cls.__name__
            assert cache.misses == misses, cls.__name__


class TestMaterializationCache:
    def test_set_graph_hit_returns_same_object(self, matrix_graph, set_cls):
        csr, _ = matrix_graph
        cache = MaterializationCache()
        first = cache.set_graph(csr, set_cls)
        second = cache.set_graph(csr, set_cls)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_oriented_hit_returns_same_objects(self, matrix_graph):
        csr, _ = matrix_graph
        cache = MaterializationCache()
        o1, d1 = cache.oriented(csr, BitSet, "DGR")
        o2, d2 = cache.oriented(csr, BitSet, "DGR")
        assert o1 is o2 and d1 is d2

    def test_distinct_backends_and_orderings_are_distinct_entries(
        self, matrix_graph
    ):
        csr, _ = matrix_graph
        cache = MaterializationCache()
        _, d_bit = cache.oriented(csr, BitSet, "DGR")
        _, d_sorted = cache.oriented(csr, SortedSet, "DGR")
        _, d_adg = cache.oriented(csr, BitSet, "ADG", eps=0.1)
        assert d_bit is not d_sorted and d_bit is not d_adg
        assert cache.stats()["oriented"] == 3

    def test_oriented_matches_two_step_materialization(self, matrix_graph):
        csr, _ = matrix_graph
        rank = compute_ordering(csr, "DGR").rank
        fused = build_oriented_set_graph(csr, rank, SortedSet)
        two_step = build_set_graph(orient_by_rank(csr, rank), SortedSet)
        assert fused.num_nodes == two_step.num_nodes
        assert fused.directed and two_step.directed
        for v in fused.vertices():
            assert np.array_equal(
                fused[v].to_array(), two_step[v].to_array()
            )

    def test_kernel_results_invariant_under_shared_cache(
        self, matrix_graph, set_cls
    ):
        csr, _ = matrix_graph
        shared = MaterializationCache()
        for name, runner in KERNEL_RUNNERS.items():
            fresh_value = runner(csr, set_cls, MaterializationCache())
            shared_value = runner(csr, set_cls, shared)
            assert fresh_value == shared_value, name
        # The shared run must actually have reused materializations.
        assert shared.hits > 0

    def test_clear_resets_everything(self, matrix_graph):
        csr, _ = matrix_graph
        cache = MaterializationCache()
        cache.oriented(csr, BitSet, "DGR")
        cache.clear()
        stats = cache.stats()
        assert stats == {"hits": 0, "misses": 0, "insertions": 0,
                         "evictions": 0, "build_seconds": 0.0,
                         "orderings": 0, "set_graphs": 0,
                         "oriented": 0, "resident_bytes": 0,
                         "budget_bytes": None}
        assert cache.build_counters == Snapshot.zero()


class TestIncrementalPivotSketch:
    """Op-counter regression: the ``P`` sketch is never rebuilt per call."""

    @pytest.mark.parametrize(
        "pivot_cls", APPROX_SET_CLASSES, ids=lambda c: c.__name__
    )
    def test_sketch_builds_scale_with_vertices_not_calls(self, pivot_cls):
        csr, _ = random_csr(40, 300, 3)
        reset_counters()
        res = bron_kerbosch(csr, "DGR", BitSet, pivot_set_cls=pivot_cls)
        builds = COUNTERS.sketch_builds
        # The recursion is deep enough for the distinction to be sharp.
        assert res.recursive_calls > 3 * csr.num_nodes
        # One build per neighborhood sketch + at most one per outer vertex
        # — the pre-refactor code paid one additional build per recursive
        # call (n + recursive_calls total), which this ceiling excludes.
        assert builds <= 2 * csr.num_nodes
        assert builds < res.recursive_calls

    def test_output_still_identical_with_maintained_sketch(self):
        csr, _ = random_csr(30, 200, 9)
        exact = bron_kerbosch(csr, "DGR", BitSet, collect=True)
        for pivot_cls in APPROX_SET_CLASSES:
            sketch = bron_kerbosch(csr, "DGR", BitSet, collect=True,
                                   pivot_set_cls=pivot_cls)
            assert (
                sorted(tuple(sorted(c)) for c in sketch.cliques)
                == sorted(tuple(sorted(c)) for c in exact.cliques)
            )


class TestBloomFprSizing:
    """--bloom-fpr: the operator states accuracy, the platform sizes bits."""

    def test_bits_for_fpr_inverts_the_fill_model(self):
        from repro.approx.estimators import (
            bloom_bits_for_fpr,
            bloom_false_positive_rate,
        )

        for n, fpr, k in ((10, 0.01, 4), (100, 0.05, 4), (1000, 0.001, 6)):
            m = bloom_bits_for_fpr(n, fpr, k)
            assert bloom_false_positive_rate(n, m, k) <= fpr
            # Minimality: one-eighth the bits must overshoot the target.
            assert bloom_false_positive_rate(n, max(1, m // 8), k) > fpr

    def test_bits_for_fpr_rejects_bad_targets(self):
        from repro.approx.estimators import bloom_bits_for_fpr

        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                bloom_bits_for_fpr(10, bad, 4)
        with pytest.raises(ValueError):
            bloom_bits_for_fpr(0, 0.01, 4)

    def test_cli_flag_resolves_to_shared_budget_meeting_target(self):
        from repro.approx.estimators import bloom_false_positive_rate
        from repro.platform.suite import plan_from_argv, resolve_backend

        plan = plan_from_argv(["--set-classes", "bloom",
                               "--bloom-fpr", "0.02"])
        assert plan.bloom_fpr == 0.02
        csr, _ = random_csr(60, 300, 4)
        cls = resolve_backend(plan, plan.set_classes[0], csr)
        assert cls.SHARED_BITS > 0
        avg = int(round(2 * csr.num_edges / csr.num_nodes))
        assert bloom_false_positive_rate(
            avg, cls.SHARED_BITS, cls.NUM_HASHES
        ) <= 0.02

    def test_fpr_takes_precedence_over_explicit_budgets(self):
        from repro.platform.cli import resolve_set_class

        sized = resolve_set_class(
            "bloom", bloom_fpr=0.01, avg_set_size=12.0, num_sets=100,
            bloom_shared_bits=64 * 100, bloom_bits=4,
        )
        explicit = resolve_set_class(
            "bloom", bloom_shared_bits=64 * 100, num_sets=100,
        )
        assert sized.SHARED_BITS != explicit.SHARED_BITS

    def test_shared_budget_floor_warns_explicitly(self):
        from repro.approx import shared_bloom_set_class

        with pytest.warns(UserWarning, match="floor"):
            shared_bloom_set_class(1024, 1000)  # ~1 bit/set: floored
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shared_bloom_set_class(1 << 20, 1000)  # rich budget: silent
