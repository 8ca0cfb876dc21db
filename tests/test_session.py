"""The session-centric API: MiningSession, the Query builder, the pool.

Covers the session lifecycle contract (cache/counter state survives
across queries, ``close()`` tears down the resident pool, sessions are
independent), the fluent query surface (compilation to
``ExperimentPlan``/``run_cell``, ordering aliases, budget knobs,
immutability), batch execution (``run_many`` snapshot merging is
associative and pool-served batches match sequential totals), and the
acceptance criteria: warm queries hit the session cache, the resident
pool starts at most once per session, and the session-produced smoke
artifact is suite-diff-identical to the CLI artifact.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from functools import reduce

import pytest

from repro.approx import BloomFilterSet
from repro.core import counters as _counters
from repro.core.counters import Snapshot
from repro.core.registry import SET_CLASSES
from repro.core.sorted_set import SortedSet
from repro.graph import load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.set_graph import MaterializationCache
from repro.platform.runner import diff_payloads
from repro.platform.session import (
    MiningSession,
    Query,
    resolve_ordering_name,
)
from repro.platform import suite as suite_mod
from repro.platform.suite import (
    SUITE_KERNELS,
    ExperimentPlan,
    expand_cells,
    register_suite_kernel,
)
from repro.mining.triangles import triangle_count_node_iterator

#: A tiny two-kernel plan for artifact-equality checks (cheaper than the
#: full smoke matrix, same moving parts: ordering-aware + ordering-free
#: kernels, exact + sketched backends).
TINY_PLAN = ExperimentPlan(
    datasets=("sc-ht-mini",),
    kernels=("tc", "bk"),
    set_classes=("bitset", "bloom"),
    orderings=("DGR",),
    repeats=1,
)

#: The set-algebra counters a suite cell records.
CELL_COUNTERS = ("set_ops", "point_ops", "memory_traffic", "sketch_builds")


def _snapshot_counters(snapshot: Snapshot) -> dict:
    return {name: getattr(snapshot, name) for name in CELL_COUNTERS}


def _cell_counters(cell: dict) -> dict:
    return {name: cell[name] for name in CELL_COUNTERS}


def _untimed(cell: dict) -> dict:
    """A cell without its wall-clock fields."""
    kept = {k: v for k, v in cell.items() if k != "seconds"}
    kept["extras"] = {k: v for k, v in cell["extras"].items()
                      if k != "task_seconds"}
    return kept


@pytest.fixture
def counted_tc():
    """Register ``tc-counted``, the suite's tc that logs each kernel pass.

    Yields the pass log; the kernel leaves the registry afterwards.
    """
    passes = []

    def runner(*args):
        passes.append(1)
        return suite_mod._run_tc(*args)

    register_suite_kernel("tc-counted", runner, "tc, logging its passes",
                          uses_ordering=False)
    try:
        yield passes
    finally:
        del SUITE_KERNELS["tc-counted"]


class TestQueryBuilder:
    def test_unknown_kernel_rejected_eagerly(self):
        with MiningSession() as session:
            with pytest.raises(KeyError, match="unknown suite kernels"):
                session.query("bogus")

    @pytest.mark.parametrize("name", ["nope", "adaptive"])
    def test_unknown_backend_rejected_eagerly(self, name):
        with MiningSession() as session:
            query = session.query("tc").on("sc-ht-mini")
            with pytest.raises(KeyError, match="unknown set classes"):
                query.backend(name)

    def test_missing_dataset_rejected_at_compile(self):
        with MiningSession() as session:
            with pytest.raises(ValueError, match="no dataset"):
                session.query("tc").run()

    def test_ordering_aliases(self):
        assert resolve_ordering_name("degeneracy") == "DGR"
        assert resolve_ordering_name("approx-degeneracy") == "ADG"
        assert resolve_ordering_name("DGR") == "DGR"
        with pytest.raises(KeyError, match="unknown ordering"):
            resolve_ordering_name("bogus")

    def test_builder_is_immutable_template(self):
        with MiningSession() as session:
            base = session.query("tc").on("sc-ht-mini")
            bloom = base.backend("bloom")
            assert base.plan().set_classes == ("sorted",)
            assert bloom.plan().set_classes == ("bloom",)
            assert bloom is not base

    def test_compiles_to_single_cell_plan(self):
        with MiningSession(workers=1, cache_budget_bytes=1 << 20) as session:
            plan = (
                session.query("kclique", k=5)
                .on("sc-ht-mini")
                .backend("bloom", fpr=0.05)
                .ordering("degeneracy")
                .repeats(2)
                .plan()
            )
            assert plan.datasets == ("sc-ht-mini",)
            assert plan.kernels == ("kclique",)
            assert plan.set_classes == ("bloom",)
            assert plan.orderings == ("DGR",)
            assert plan.k == 5 and plan.repeats == 2
            assert plan.bloom_fpr == 0.05
            # The session's execution knobs travel with the compiled plan.
            assert plan.workers == 1 and plan.cache_budget_bytes == 1 << 20

    def test_ordering_free_kernel_compiles_to_dash_cell(self):
        with MiningSession() as session:
            spec = session.query("tc").on("x").ordering("degree").cell_spec()
            assert spec == ("sorted", "tc", "-")

    def test_override_dicts(self):
        with MiningSession() as session:
            base = session.query("tc").on("sc-ht-mini").backend("bitset")
            variant = base.with_overrides(
                {"kernel": "kclique", "backend": "bloom", "fpr": 0.02,
                 "ordering": "degeneracy", "k": 5}
            )
            plan = variant.plan()
            assert plan.kernels == ("kclique",)
            assert plan.set_classes == ("bloom",)
            assert plan.bloom_fpr == 0.02
            assert plan.orderings == ("DGR",)
            assert plan.k == 5
            with pytest.raises(KeyError, match="unknown query override"):
                base.with_overrides({"bogus": 1})


class TestSessionLifecycle:
    def test_query_answers_match_direct_kernel_call(self):
        graph = load_dataset("sc-ht-mini")
        expected = triangle_count_node_iterator(graph)
        with MiningSession() as session:
            result = session.query("tc").on("sc-ht-mini").backend(
                "bitset").run()
            assert result.value == expected
            assert result.exact
            assert result.resolved_class == "BitSet"

    def test_cache_state_survives_across_queries(self, counted_tc):
        with MiningSession() as session:
            q = session.query("tc-counted").on("sc-ht-mini").backend(
                "bitset")
            cold = q.run()
            assert cold.cache_misses > 0
            # The cold pass paid the materialization, metered apart by
            # the cache, and was kept.
            assert len(counted_tc) == 1
            warm = q.run()
            # Acceptance: the second identical query is served from the
            # session cache.
            assert warm.cache_hits > 0
            assert warm.cache_misses == 0
            assert len(counted_tc) == 2
            stats = session.cache.stats()
            assert stats["hits"] >= warm.cache_hits
            assert stats["set_graphs"] >= 1

    def test_counter_state_accumulates_across_queries(self):
        with MiningSession() as session:
            q = session.query("tc").on("sc-ht-mini").backend("bitset")
            first = q.run()
            after_one = session.counters
            q.run()
            after_two = session.counters
            assert first.counters.set_ops > 0
            assert after_one.set_ops >= first.counters.set_ops
            assert after_two.set_ops > after_one.set_ops
            assert session.queries_run == 2

    def test_sessions_are_independent(self):
        with MiningSession() as first:
            first.query("tc").on("sc-ht-mini").backend("bitset").run()
            assert first.cache.stats()["misses"] > 0
            with MiningSession() as second:
                # A fresh session starts cold: no shared cache, graphs,
                # counters, or traffic stats.
                assert second.cache.stats()["misses"] == 0
                assert second.cache.stats()["hits"] == 0
                assert second.graphs() == []
                assert second.queries_run == 0
                assert second.counters == Snapshot.zero()

    def test_close_refuses_further_work_and_is_idempotent(self):
        session = MiningSession()
        session.query("tc").on("sc-ht-mini").run()
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.query("tc")
        with pytest.raises(RuntimeError, match="closed"):
            session.run_plan(TINY_PLAN)
        # Stats stay readable for final reporting.
        assert session.stats()["closed"] is True

    def test_add_graph_serves_custom_graphs(self):
        graph = load_dataset("sc-ht-mini")
        with MiningSession() as session:
            session.add_graph("mine", graph)
            result = session.query("tc").on("mine").backend("bitset").run()
            assert result.value == triangle_count_node_iterator(graph)
            assert "mine" in session.graphs()

    def test_warm_prematerializes(self):
        with MiningSession() as session:
            session.warm("sc-ht-mini", backends=("bitset",),
                         orderings=("degeneracy",))
            misses_before = session.cache.stats()["misses"]
            result = session.query("4clique").on("sc-ht-mini").backend(
                "bitset").ordering("degeneracy").run()
            assert result.cache_misses == 0
            assert session.cache.stats()["misses"] == misses_before

    def test_backend_resolution_memoized_per_budget(self):
        with MiningSession() as session:
            q = session.query("tc").on("sc-ht-mini")
            a = q.backend("bloom", shared_bits=64 * 300).run()
            b = q.backend("bloom", shared_bits=64 * 300).run()
            c = q.backend("bloom", shared_bits=128 * 300).run()
            assert a.resolved_class == b.resolved_class
            # A different budget must not reuse the memoized class.
            assert c.resolved_class != a.resolved_class

    @pytest.mark.parametrize("budget", [
        {"bits": 8}, {"shared_bits": 64 * 300}, {"fpr": 0.05},
        {"kmv_k": 16},
    ], ids=["bits", "shared-bits", "fpr", "kmv-k"])
    def test_repeated_budgeted_query_is_warm(self, budget):
        # Equal budgets resolve to the same class object, so the second
        # query finds the first one's materializations.
        backend = "kmv" if "kmv_k" in budget else "bloom"
        with MiningSession() as session:
            q = session.query("4clique").on("sc-ht-mini").backend(
                backend, **budget)
            cold, warm = q.run(), q.run()
        assert cold.cache_misses > 0
        assert warm.cache_misses == 0
        assert warm.value == cold.value


class TestKernelPasses:
    """Cold or warm, a cell runs ``repeats`` passes; the cache's builds
    are metered apart and kept out of the cell."""

    def test_repeats_are_metered_passes(self, counted_tc):
        with MiningSession() as session:
            q = session.query("tc-counted").on("sc-ht-mini").backend(
                "bitset").repeats(3)
            q.run()
            assert len(counted_tc) == 3
            counted_tc.clear()
            q.run()
            assert len(counted_tc) == 3

    def test_warm_query_counters_are_its_cells(self):
        with MiningSession() as session:
            q = session.query("tc").on("sc-ht-mini").backend("bitset")
            cold = q.run()
            warm = q.run()
        assert warm.cache_misses == 0 and warm.counters.set_ops > 0
        assert _snapshot_counters(warm.counters) == _cell_counters(warm.cell)
        # The cold query ran one pass too; building the BitSets records
        # no set operation.
        assert cold.counters.set_ops == cold.cell["set_ops"]

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_cache_too_small_to_keep_runs_repeats_passes(self, counted_tc,
                                                         repeats):
        graph = load_dataset("sc-ht-mini")
        with MiningSession(cache_budget_bytes=1) as session:
            result = session.query("tc-counted").on("sc-ht-mini").backend(
                "bitset").repeats(repeats).run()
            # Every pass rebuilt the evicted SetGraph...
            assert result.cache_misses == repeats
            assert session.cache.stats()["evictions"] == repeats
        # ...and no pass was thrown away for it.
        assert len(counted_tc) == repeats
        assert result.value == triangle_count_node_iterator(graph)

    def test_cold_and_warm_bloom_cells_agree_up_to_timing(self):
        with MiningSession() as session:
            q = session.query("tc").on("sc-ht-mini").backend("bloom")
            cold = q.run()
            warm = q.run()
        assert cold.cache_misses > 0 and warm.cache_misses == 0
        assert _untimed(cold.cell) == _untimed(warm.cell)
        # Materialization built sketches, metered by the cache and kept
        # out of the cell.
        built = session.cache.build_counters.sketch_builds
        assert built > 0
        assert cold.counters.sketch_builds == (
            cold.cell["sketch_builds"] + built)

    @pytest.mark.parametrize("backend", sorted(SET_CLASSES))
    @pytest.mark.parametrize("kernel", sorted(SUITE_KERNELS))
    def test_cold_cell_equals_warm_cell_up_to_timing(self, kernel, backend):
        with MiningSession() as session:
            q = session.query(kernel).on("sc-ht-mini").backend(backend)
            cold = q.run()
            warm = q.run()
        assert cold.cache_misses > 0 and warm.cache_misses == 0
        assert _untimed(cold.cell) == _untimed(warm.cell)


class TestResidentPool:
    @pytest.fixture(scope="class")
    def pool_session(self):
        with MiningSession(workers=2) as session:
            yield session

    def test_pool_started_lazily_and_at_most_once(self, pool_session):
        session = pool_session
        session.query("tc").on("sc-ht-mini").backend("bitset").run()
        assert session.pool_starts == 0  # single queries stay in-process
        batch1 = session.query("tc").on("sc-ht-mini").run_many(
            [{"backend": "bitset"}, {"backend": "bloom"}]
        )
        batch2 = session.query("bk").on("sc-ht-mini").ordering(
            "degeneracy").run_many(
            [{"backend": "bitset"}, {"backend": "bloom"}]
        )
        assert len(batch1) == len(batch2) == 2
        # Acceptance: the resident pool is created at most once.
        assert session.pool_starts == 1
        assert session.stats()["pool"]["resident"]

    def test_batch_values_match_sequential(self, pool_session):
        variants = [{"backend": "bitset"}, {"backend": "bloom"},
                    {"backend": "sorted"}]
        pooled = pool_session.query("tc").on("sc-ht-mini").run_many(variants)
        with MiningSession() as sequential:
            direct = sequential.query("tc").on("sc-ht-mini").run_many(
                variants)
        assert [r.value for r in pooled] == [r.value for r in direct]
        assert [r.resolved_class for r in pooled] == \
            [r.resolved_class for r in direct]

    def test_pooled_batch_equals_in_process_batch(self):
        # Pool or in-process, a batch runs the same cell task: the cells
        # agree on everything but timing, and a warmed pool reports its
        # workers' cache hits instead of zeros.
        backends = ("bitset", "hash", "sorted", "bloom")
        variants = [{"backend": name} for name in backends]
        with MiningSession(workers=2) as session:
            session.warm("sc-ht-mini", backends=backends)
            pooled = session.query("tc").on("sc-ht-mini").run_many(variants)
        with MiningSession() as session:
            direct = session.query("tc").on("sc-ht-mini").run_many(variants)
        assert [_untimed(r.cell) for r in pooled] == \
            [_untimed(r.cell) for r in direct]
        for result in pooled:
            assert result.cache_misses == 0 and result.cache_hits > 0
        # One clock for both: completion minus the call's start, so an
        # in-process batch's walls grow with its position.
        walls = [r.wall_seconds for r in direct]
        assert walls == sorted(walls) and walls[0] > 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="forked workers inherit the budgeted class")
    def test_budgeted_sketch_warm_state_reaches_forked_workers(self):
        # A forked worker resolves bits=8 to the parent's own class
        # object, so the seeded bloom DAG is hit there, not rebuilt: the
        # ordering and the DAG, as an unbudgeted warm query hits them.
        with MiningSession(workers=2) as session:
            session.warm("sc-ht-mini", backends=("bloom",),
                         orderings=("DGR",), bits=8)
            results = (session.query("4clique").on("sc-ht-mini")
                       .ordering("DGR").backend("bloom", bits=8)
                       .run_many([{}, {}]))
        assert [(r.cache_hits, r.cache_misses) for r in results] == \
            [(2, 0), (2, 0)]

    def test_run_many_merges_snapshots_associatively(self, pool_session):
        variants = [{"backend": "bitset"}, {"backend": "bloom"},
                    {"backend": "sorted"}]
        before = _counters.snapshot()
        results = pool_session.query("tc").on("sc-ht-mini").run_many(
            variants)
        delta = before.delta(_counters.snapshot())
        deltas = [r.counters for r in results]
        left = reduce(Snapshot.merge, deltas, Snapshot.zero())
        right = reduce(
            Snapshot.merge, reversed(deltas), Snapshot.zero()
        )
        # Merge order cannot matter, and the merged total is exactly what
        # the session absorbed into the parent's global block — except the
        # payload-shipping fields, which are parent-side transport
        # accounting (one submit per task) and intentionally never
        # attributed to individual variants.
        assert left == right
        assert left == dataclasses.replace(
            delta, payload_bytes_shipped=0, payload_tasks=0
        )
        assert delta.set_ops > 0
        # One task per variant: one submit each.
        assert delta.payload_tasks == len(variants)
        assert delta.payload_bytes_shipped > 0

    def test_close_tears_down_the_pool(self):
        with MiningSession(workers=2) as session:
            session.query("tc").on("sc-ht-mini").run_many(
                [{"backend": "bitset"}]
            )
            pool = session._pool
            assert pool is not None
        assert session._pool is None
        assert session.closed
        with pytest.raises(RuntimeError):
            pool.submit(int)  # the executor really was shut down

    def test_close_stops_every_pool_worker(self):
        with MiningSession(workers=2) as session:
            session.query("tc").on("sc-ht-mini").run_many(
                [{"backend": "bitset"}]
            )
            workers = list(session._pool._processes.values())
            assert len(workers) == 2
            assert all(worker.is_alive() for worker in workers)
        assert all(worker.exitcode is not None for worker in workers)

    def test_double_close_after_pool_use(self):
        session = MiningSession(workers=2)
        session.query("tc").on("sc-ht-mini").run_many(
            [{"backend": "sorted"}]
        )
        session.close()
        session.close()
        assert session.closed and session._pool is None
        # Only session-owned pool facts are reported.
        assert session.stats()["pool"] == {
            "workers": 2, "starts": 1, "resident": False,
        }
        with pytest.raises(RuntimeError, match="closed"):
            session.query("tc")

    def test_custom_graph_after_pool_start_fails_fast(self):
        with MiningSession(workers=2) as session:
            session.query("tc").on("sc-ht-mini").run_many(
                [{"backend": "bitset"}]
            )
            session.add_graph("late", load_dataset("sc-ht-mini"))
            with pytest.raises(RuntimeError, match="resident pool"):
                session.query("tc").on("late").run_many(
                    [{"backend": "bitset"}]
                )

    def test_shipped_custom_graph_survives_worker_lru_churn(self):
        # A shipped session-local graph is pinned in the workers: churning
        # more registry datasets than the per-worker LRU capacity through
        # the pool must not evict it (workers cannot reload it by name).
        graph = load_dataset("antcolony5-mini")
        expected = triangle_count_node_iterator(graph)
        churn = ("sc-ht-mini", "antcolony6-mini", "jester2-mini",
                 "mbeacxc-mini", "gearbox-mini")
        with MiningSession(workers=2) as session:
            session.add_graph("mine", graph)
            first = session.query("tc").on("mine").run_many(
                [{"backend": "bitset"}]
            )
            for dataset in churn:
                session.query("tc").on(dataset).run_many(
                    [{"backend": "bitset"}]
                )
            again = session.query("tc").on("mine").run_many(
                [{"backend": "bitset"}]
            )
            assert first[0].value == again[0].value == expected

    def test_shipped_graph_cannot_be_rebound_on_a_running_pool(self):
        with MiningSession(workers=2) as session:
            session.add_graph("mine", load_dataset("sc-ht-mini"))
            session.query("tc").on("mine").run_many([{"backend": "bitset"}])
            with pytest.raises(RuntimeError, match="re-bound"):
                session.add_graph("mine", load_dataset("gearbox-mini"))

    def test_rebinding_after_pool_start_reports_divergence(self):
        # A known name re-bound after the pool starts means the workers
        # never saw the replacement graph.  The session must report the
        # re-binding itself — not the generic not-shipped error, and
        # never a silent worker-side fallback to something else.
        with MiningSession(workers=2) as session:
            session.query("tc").on("sc-ht-mini").run_many(
                [{"backend": "bitset"}]
            )
            session.add_graph("late", load_dataset("antcolony5-mini"))
            session.add_graph("late", load_dataset("gearbox-mini"))
            with pytest.raises(RuntimeError, match="re-bound"):
                session.query("tc").on("late").run_many(
                    [{"backend": "bitset"}]
                )

    def test_unpicklable_graph_is_served_by_the_pool(self):
        # Workers inherit the graph store by fork, so a graph whose class
        # cannot be pickled by reference still reaches them.
        class LocalGraph(CSRGraph):
            pass

        base = load_dataset("sc-ht-mini")
        weird = LocalGraph(base.offsets, base.adjacency,
                           directed=base.directed)
        with MiningSession(workers=2) as session:
            session.add_graph("weird", weird)
            in_process = session.query("tc").on("weird").backend(
                "bitset").run()
            (pooled,) = session.query("tc").on("weird").run_many(
                [{"backend": "bitset"}]
            )
        assert pooled.value == in_process.value == \
            triangle_count_node_iterator(base)

    def test_pool_start_ships_only_task_arguments(self):
        # The warm state reaches the workers without being shipped: the
        # first batch meters exactly its one task's pickled arguments,
        # and the warmed cell runs on a worker without a cache miss.
        with MiningSession(workers=2) as session:
            session.warm("sc-ht-mini", backends=("bitset",))
            query = session.query("tc").on("sc-ht-mini").backend("bitset")
            plan = query.plan()
            before = _counters.snapshot()
            (result,) = query.run_many()
            delta = before.delta(_counters.snapshot())
            assert session.pool_starts == 1
            assert delta.payload_tasks == 1
            assert delta.payload_bytes_shipped == len(pickle.dumps(
                (plan, "sc-ht-mini", query.cell_spec())))
            assert session.stats()["worker_caches"]["misses"] == 0
            assert result.value == triangle_count_node_iterator(
                load_dataset("sc-ht-mini"))

    def test_warm_pool_variant_counters_are_its_cells(self):
        with MiningSession(workers=2) as session:
            session.warm("sc-ht-mini", backends=("bitset",))
            (result,) = session.query("tc").on("sc-ht-mini").run_many(
                [{"backend": "bitset"}])
            assert session.stats()["worker_caches"]["misses"] == 0
        assert result.counters.set_ops > 0
        assert _snapshot_counters(result.counters) == \
            _cell_counters(result.cell)

    def test_worker_exception_mid_shard_propagates(self, monkeypatch):
        # Patch run_cell *before* the pool forks: the workers inherit the
        # parent's memory, so their shard raises mid-flight.  The error
        # reaches the caller and close() still shuts the pool down.
        def _boom(*args, **kwargs):
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(suite_mod, "run_cell", _boom)
        with MiningSession(workers=2) as session:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                session.query("tc").on("sc-ht-mini").run_many(
                    [{"backend": "sorted"}]
                )
            pool = session._pool
        assert session._pool is None
        with pytest.raises(RuntimeError):
            pool.submit(int)  # the executor really was shut down

    def test_run_plan_bounds_cells_in_flight_by_workers(self, monkeypatch):
        # A plan keeps at most the session's workers single-cell tasks
        # outstanding on the pool, and its artifact is the sequential one.
        submit = ProcessPoolExecutor.submit
        futures = []
        in_flight = []  # outstanding futures, counted at each submission

        def counting_submit(pool, *args):
            in_flight.append(1 + sum(not f.done() for f in futures))
            futures.append(submit(pool, *args))
            return futures[-1]

        monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
        plan = ExperimentPlan.smoke()
        with MiningSession(workers=2) as session:
            (payload,) = session.run_plan(plan)
        with MiningSession() as sequential:
            (expected,) = sequential.run_plan(plan)
        assert len(in_flight) == len(expected["cells"])
        assert max(in_flight) <= 2
        assert payload["execution"]["workers"] == 2
        assert diff_payloads(expected, payload) == []

    def test_run_many_ships_one_task_per_variant(self):
        # Variants sharing a dataset, backend, ordering and every other
        # plan knob are still one (plan, dataset, spec) task each.
        with MiningSession(workers=2) as session:
            session.query("tc").on("sc-ht-mini").run_many(
                [{"backend": "bitset"}]
            )  # pool is up; later deltas are pure submits
            query = session.query("bk").on("sc-ht-mini").backend("bitset")
            overrides = [{"kernel": "4clique"}, {"kernel": "bk"}]
            before = _counters.snapshot()
            results = query.run_many(overrides)
            delta = before.delta(_counters.snapshot())
        variants = [query.with_overrides(o) for o in overrides]
        assert delta.payload_tasks == len(variants)
        assert delta.payload_bytes_shipped == sum(
            len(pickle.dumps((v.plan(), "sc-ht-mini", v.cell_spec())))
            for v in variants
        )
        assert [r.kernel for r in results] == ["4clique", "bk"]
        assert all(r.counters.set_ops > 0 for r in results)

    def test_backend_memo_tracks_graph_identity(self):
        # Re-binding a name to a different graph must re-resolve budgeted
        # backends: a shared Bloom budget is split per vertex, so the
        # resolved class depends on the graph's size, not just its name.
        small = load_dataset("antcolony5-mini")    # n = 152
        large = load_dataset("gearbox-mini")       # n = 1200
        with MiningSession() as session:
            session.add_graph("g", small)
            a = session.query("tc").on("g").backend(
                "bloom", shared_bits=1 << 20).run()
            session.add_graph("g", large)
            b = session.query("tc").on("g").backend(
                "bloom", shared_bits=1 << 20).run()
            assert a.resolved_class != b.resolved_class


class TestSessionPlans:
    def test_run_plan_artifact_matches_cli_artifact(self, tmp_path,
                                                    monkeypatch, capsys):
        import repro.platform.bench as bench
        from repro.__main__ import main

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        assert main(["suite", "--smoke"]) == 0
        capsys.readouterr()
        cli_payload = json.loads(
            (tmp_path / "suite_sc-ht-mini.json").read_text()
        )
        with MiningSession() as session:
            payload = session.run_plan(ExperimentPlan.smoke())[0]
        # Acceptance: the session-produced smoke artifact is
        # suite-diff-identical to the CLI sequential artifact.
        assert diff_payloads(cli_payload, payload) == []

    def test_second_plan_run_is_cache_warm(self):
        with MiningSession() as session:
            session.run_plan(TINY_PLAN)
            stats_cold = dict(session.cache.stats())
            session.run_plan(TINY_PLAN)
            stats_warm = session.cache.stats()
            # Acceptance: re-running the same plan adds hits, not misses.
            assert stats_warm["hits"] > stats_cold["hits"]
            assert stats_warm["misses"] == stats_cold["misses"]
            assert session.plans_run == 2

    def test_session_execution_knobs_govern_plans(self):
        with MiningSession(workers=1) as session:
            plan = ExperimentPlan(
                datasets=("sc-ht-mini",), kernels=("tc",),
                set_classes=("bitset",), orderings=("DGR",),
                workers=7,
            )
            payload = session.run_plan(plan)[0]
            assert payload["execution"]["workers"] == 1
            assert payload["execution"]["schedule"] == "sequential"

    def test_in_process_plan_reports_the_session_cache_budget(self):
        # The budget override rides the plan into pool workers; cells run
        # in-process are bounded by the session cache, and say so.
        plan = ExperimentPlan(
            datasets=("sc-ht-mini",), kernels=("tc",),
            set_classes=("bitset",), orderings=("DGR",),
        )
        with MiningSession(cache_budget_bytes=1 << 20) as session:
            (payload,) = session.run_plan(plan, cache_budget_bytes=1 << 10)
        assert payload["plan"]["cache_budget_bytes"] == 1 << 10
        assert payload["materialization"]["budget_bytes"] == 1 << 20
        assert payload["materialization"]["workers"] == 1

    def test_parallel_plan_through_resident_pool_is_deterministic(self):
        with MiningSession() as sequential:
            expected = sequential.run_plan(TINY_PLAN)[0]
        with MiningSession(workers=2) as session:
            first = session.run_plan(TINY_PLAN)[0]
            second = session.run_plan(TINY_PLAN)[0]
            assert session.pool_starts == 1
            assert diff_payloads(expected, first) == []
            assert diff_payloads(expected, second) == []
            # Each artifact reports only its own run's cache deltas; the
            # second run was served by warm workers, so it shows mostly
            # hits (a run-2 cell may still land on a worker that never
            # materialized that backend under dynamic scheduling, so a
            # few misses are legitimate — but strictly fewer than cold).
            cold, warm = (first["materialization"],
                          second["materialization"])
            assert cold["misses"] > 0
            assert warm["hits"] > 0
            assert warm["misses"] < warm["hits"]
            assert warm["misses"] < cold["misses"]
            # ...and the session-level accumulator saw the pool traffic.
            worker_caches = session.stats()["worker_caches"]
            assert worker_caches is not None
            assert worker_caches["hits"] >= warm["hits"]

    def test_materialization_attributed_per_dataset(self):
        # One session cache serves every dataset, but each dataset's
        # artifact must report only its own run's cache work — the old
        # per-dataset-cache behavior, recovered via stats deltas.
        plan = ExperimentPlan(
            datasets=("sc-ht-mini", "antcolony5-mini"),
            kernels=("tc",), set_classes=("bitset",), orderings=("DGR",),
        )
        with MiningSession() as session:
            first, second = session.run_plan(plan)
            for payload in (first, second):
                mat = payload["materialization"]
                # tc on bitset + sorted reference: exactly one set-graph
                # materialization per backend for *this* dataset.
                assert mat["misses"] == 2
            # A warm re-run of the same plan attributes only hits.
            warm_first, warm_second = session.run_plan(plan)
            assert warm_first["materialization"]["misses"] == 0
            assert warm_first["materialization"]["hits"] > 0
            assert warm_second["materialization"]["misses"] == 0

    def test_plan_budget_bounds_the_pool_workers_it_runs_on(self):
        # Worker caches seeded and filled under the session's unbounded
        # budget take each plan's budget before its cells run.
        with MiningSession() as sequential:
            (expected,) = sequential.run_plan(TINY_PLAN)
        with MiningSession(workers=2) as session:
            session.warm("sc-ht-mini", backends=("bitset",))
            (unbounded,) = session.run_plan(TINY_PLAN)
            assert unbounded["materialization"]["resident_bytes"] > 0
            (bounded,) = session.run_plan(TINY_PLAN, cache_budget_bytes=1)
            mat = bounded["materialization"]
            assert mat["budget_bytes"] == 1
            assert mat["resident_bytes"] == 0
            assert diff_payloads(expected, bounded) == []
            # The entries the budget dropped are counted: every worker
            # held seeded entries, and a worker drops its own when the
            # first bounded task lands on it, on top of evicting what the
            # bounded run inserts.
            held = (unbounded["materialization"]["set_graphs"]
                    + unbounded["materialization"]["oriented"])
            assert mat["insertions"] < mat["evictions"] <= (
                mat["insertions"] + held)
            # The next unbounded plan fills the worker caches again.
            (refilled,) = session.run_plan(TINY_PLAN)
            assert refilled["materialization"]["resident_bytes"] > 0
            assert diff_payloads(expected, refilled) == []

    def test_pool_prewarm_ships_parent_materializations(self):
        with MiningSession(workers=2) as session:
            # Warm the *parent* cache before the pool exists; the pool's
            # workers inherit the payload at start and report hits without
            # ever materializing locally.
            session.warm("sc-ht-mini", backends=("bitset",))
            plan = ExperimentPlan(
                datasets=("sc-ht-mini",), kernels=("tc",),
                set_classes=("bitset",), orderings=("DGR",),
            )
            payload = session.run_plan(plan)[0]
            mat = payload["materialization"]
            assert mat["hits"] > 0
            # tc on bitset + the sorted reference: the bitset set-graph came
            # pre-seeded, only the reference backend's had to be built.
            assert mat["misses"] <= 1 * mat["workers"]


class TestWorkerDatasetLru:
    def test_eviction_honors_capacity_recency_and_pins(self, monkeypatch):
        # The in-process replica of a pool worker's dataset LRU: fill to
        # capacity, pin one custom entry, then churn past the bound.
        from repro.platform import runner

        monkeypatch.setattr(runner, "_WORKER_STATE", runner.OrderedDict())
        monkeypatch.setattr(runner, "_WORKER_PINNED", set())
        cache = MaterializationCache()
        runner._WORKER_STATE["mine"] = (load_dataset("antcolony5-mini"),
                                        cache)
        runner._WORKER_PINNED.add("mine")
        fill = ("sc-ht-mini", "antcolony6-mini", "jester2-mini")
        for name in fill:
            runner._worker_dataset(name)
        assert len(runner._WORKER_STATE) == runner._WORKER_DATASET_CAPACITY
        # A hit refreshes recency: sc-ht-mini is no longer the LRU.
        runner._worker_dataset("sc-ht-mini")
        runner._worker_dataset("mbeacxc-mini")
        assert len(runner._WORKER_STATE) == runner._WORKER_DATASET_CAPACITY
        assert "mine" in runner._WORKER_STATE          # pinned survives
        assert "sc-ht-mini" in runner._WORKER_STATE    # recently used
        assert "antcolony6-mini" not in runner._WORKER_STATE  # true LRU
        # Churn far past capacity: the bound and the pin both keep holding.
        for name in ("gearbox-mini", "jester2-mini", "antcolony6-mini"):
            runner._worker_dataset(name)
            assert len(runner._WORKER_STATE) <= \
                runner._WORKER_DATASET_CAPACITY
        assert "mine" in runner._WORKER_STATE


#: Warm states a pool can start from: nothing, part of the smoke plan's
#: materializations, and all of them (reference backend included).
WARM_STATES = {
    "cold": None,
    "warm-dgr": (("sorted", "bitset"), ("DGR",)),
    "warm-all": (("sorted", "bitset", "bloom"), ("DGR", "ADG")),
}


class TestForkedWarmState:
    @pytest.fixture(scope="class")
    def sequential_smoke(self):
        with MiningSession() as session:
            return session.run_plan(ExperimentPlan.smoke())[0]

    @pytest.mark.parametrize("warm", list(WARM_STATES.values()),
                             ids=list(WARM_STATES))
    def test_pool_run_identical_and_ships_only_tasks(self, sequential_smoke,
                                                     warm):
        plan = dataclasses.replace(ExperimentPlan.smoke(), workers=2)
        with MiningSession(workers=2) as session:
            if warm is not None:
                backends, orderings = warm
                session.warm("sc-ht-mini", backends=backends,
                             orderings=orderings)
            before = _counters.snapshot()
            (payload,) = session.run_plan(plan)
            delta = before.delta(_counters.snapshot())
        assert diff_payloads(sequential_smoke, payload) == []
        # However much warm state the workers started with, only the
        # single-cell tasks' own arguments crossed the process boundary.
        dataset = plan.datasets[0]
        assert delta.payload_tasks == len(payload["cells"])
        assert delta.payload_bytes_shipped == sum(
            len(pickle.dumps((plan, dataset, spec)))
            for spec in expand_cells(plan)
        )
        if warm == WARM_STATES["warm-all"]:
            # Every cell found its materialization already in its worker.
            assert payload["materialization"]["misses"] == 0


class TestSeedWorker:
    @pytest.fixture
    def runner(self, monkeypatch):
        from repro.platform import runner

        monkeypatch.setattr(runner, "_WORKER_STATE", runner.OrderedDict())
        monkeypatch.setattr(runner, "_WORKER_PINNED", set())
        return runner

    def test_installs_the_parent_graph_and_its_materializations(
        self, runner
    ):
        graph = load_dataset("sc-ht-mini")
        parent = MaterializationCache()
        parent.oriented(graph, SortedSet, "DGR")
        runner._seed_worker(
            {"sc-ht-mini": (graph, parent.export_graph_state(graph))},
            1 << 30,
        )
        assert runner._WORKER_STATE["sc-ht-mini"][1].budget_bytes == 1 << 30
        seeded, cache = runner._worker_dataset("sc-ht-mini")
        assert seeded is graph  # the parent's object, not a reload
        # A session's tasks carry its budget; each task's plan governs.
        result = runner._run_task(
            ExperimentPlan(cache_budget_bytes=1 << 29), "sc-ht-mini",
            ("sorted", "4clique", "DGR"))
        assert cache.budget_bytes == 1 << 29
        assert result["cache_stats"]["misses"] == 0
        cache.oriented(graph, SortedSet, "DGR")
        assert cache.misses == 0 and cache.hits > 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="compares the fork and spawn start methods")
    def test_only_pickled_seed_state_drops_budget_derived_classes(
        self, runner
    ):
        graph = load_dataset("sc-ht-mini")
        parent = MaterializationCache()
        parent.oriented(graph, SortedSet, "DGR")
        parent.oriented(graph, BloomFilterSet.with_budget(8), "DGR")
        state = parent.export_graph_state(graph)
        assert len(state["graphs"]) == 2
        forked = runner._seed_state(state, multiprocessing.get_context("fork"))
        assert forked == state
        spawned = runner._seed_state(state,
                                     multiprocessing.get_context("spawn"))
        assert [key[1] for key in spawned["graphs"]] == [SortedSet]
        assert spawned["orderings"] == state["orderings"]
        pickle.dumps(spawned)  # what a spawn pool's initializer receives

    def test_pins_only_graphs_a_worker_cannot_reload(self, runner):
        graph = load_dataset("sc-ht-mini")
        empty = MaterializationCache().export_graph_state(graph)
        runner._seed_worker(
            {"sc-ht-mini": (graph, empty), "mine": (graph, empty)}, None
        )
        assert list(runner._WORKER_STATE) == ["sc-ht-mini", "mine"]
        assert runner._WORKER_PINNED == {"mine"}
