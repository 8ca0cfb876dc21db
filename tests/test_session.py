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
import pickle
from functools import reduce

import pytest

from repro.core import counters as _counters
from repro.core.counters import Snapshot
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
from repro.platform.suite import ExperimentPlan, expand_cells
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


class TestQueryBuilder:
    def test_unknown_kernel_rejected_eagerly(self):
        with MiningSession() as session:
            with pytest.raises(KeyError, match="unknown suite kernels"):
                session.query("bogus")

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

    def test_cache_state_survives_across_queries(self):
        with MiningSession() as session:
            q = session.query("tc").on("sc-ht-mini").backend("bitset")
            cold = q.run()
            assert cold.cache_misses > 0
            warm = q.run()
            # Acceptance: the second identical query is served from the
            # session cache.
            assert warm.cache_hits > 0
            assert warm.cache_misses == 0
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
        # accounting (one submit per shard group) and intentionally never
        # attributed to individual variants.
        assert left == right
        assert left == dataclasses.replace(
            delta, payload_bytes_shipped=0, payload_tasks=0
        )
        assert delta.set_ops > 0
        # Distinct backends cannot share a shard: one submit each.
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
                (plan, "sc-ht-mini", [(0, query.cell_spec())])))
            assert session.stats()["worker_caches"]["misses"] == 0
            assert result.value == triangle_count_node_iterator(
                load_dataset("sc-ht-mini"))

    def test_worker_exception_mid_shard_propagates(self, monkeypatch):
        # Patch run_cell *before* the pool forks: the workers inherit the
        # parent's memory, so their shard raises mid-flight.  The error
        # reaches the caller and close() still shuts the pool down.
        import repro.platform.suite as suite_mod

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

    def test_worker_share_bounds_cells_in_flight(self, monkeypatch):
        # A plan clamped to k < workers keeps at most k single-cell tasks
        # outstanding on the pool, and its artifact is unchanged.
        from repro.platform import runner

        submit = runner._submit_shard
        futures = []
        in_flight = []  # outstanding futures, counted at each submission

        def counting_submit(*args):
            in_flight.append(1 + sum(not f.done() for f in futures))
            futures.append(submit(*args))
            return futures[-1]

        monkeypatch.setattr(runner, "_submit_shard", counting_submit)
        plan = ExperimentPlan.smoke()
        with MiningSession(workers=3) as session:
            (payload,) = session.run_plan(plan, max_workers=2)
        with MiningSession() as sequential:
            (expected,) = sequential.run_plan(plan)
        assert len(in_flight) == len(expected["cells"])
        assert max(in_flight) <= 2
        assert payload["execution"]["workers"] == 2
        assert diff_payloads(expected, payload) == []

    def test_run_many_batches_same_materialization_variants(self):
        # Variants that share (dataset, backend, ordering) and the
        # plan-level knobs ride ONE pool shard: a single submit (one
        # payload task) whose per-cell counter deltas come back split
        # per variant.
        with MiningSession(workers=2) as session:
            session.query("tc").on("sc-ht-mini").run_many(
                [{"backend": "bitset"}]
            )  # pool is up; later deltas are pure submits
            before = _counters.snapshot()
            results = session.query("bk").on("sc-ht-mini").backend(
                "bitset").run_many([{"kernel": "4clique"}, {"kernel": "bk"}])
            delta = before.delta(_counters.snapshot())
            assert delta.payload_tasks == 1
            assert len(results) == 2
            assert all(r.counters.set_ops > 0 for r in results)
            # Distinct orderings break the shard: two submits.
            before = _counters.snapshot()
            session.query("bk").on("sc-ht-mini").backend("bitset").run_many(
                [{"ordering": "DGR"}, {"ordering": "ADG"}]
            )
            assert before.delta(_counters.snapshot()).payload_tasks == 2

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
        monkeypatch.setattr(runner, "_WORKER_BACKENDS", {})
        plan = ExperimentPlan()
        cache = MaterializationCache()
        runner._WORKER_STATE["mine"] = (load_dataset("antcolony5-mini"),
                                        cache)
        runner._WORKER_PINNED.add("mine")
        fill = ("sc-ht-mini", "antcolony6-mini", "jester2-mini")
        for name in fill:
            runner._worker_dataset(plan, name)
        assert len(runner._WORKER_STATE) == runner._WORKER_DATASET_CAPACITY
        # A hit refreshes recency: sc-ht-mini is no longer the LRU.
        runner._worker_dataset(plan, "sc-ht-mini")
        runner._WORKER_BACKENDS[("antcolony6-mini", "sorted")] = SortedSet
        runner._worker_dataset(plan, "mbeacxc-mini")
        assert len(runner._WORKER_STATE) == runner._WORKER_DATASET_CAPACITY
        assert "mine" in runner._WORKER_STATE          # pinned survives
        assert "sc-ht-mini" in runner._WORKER_STATE    # recently used
        assert "antcolony6-mini" not in runner._WORKER_STATE  # true LRU
        # The victim's memoized backends left with it.
        assert not any(k[0] == "antcolony6-mini"
                       for k in runner._WORKER_BACKENDS)
        # Churn far past capacity: the bound and the pin both keep holding.
        for name in ("gearbox-mini", "jester2-mini", "antcolony6-mini"):
            runner._worker_dataset(plan, name)
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
            len(pickle.dumps((plan, dataset, [(index, spec)])))
            for index, spec in enumerate(expand_cells(plan))
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
        seeded, cache = runner._worker_dataset(ExperimentPlan(),
                                               "sc-ht-mini")
        assert seeded is graph  # the parent's object, not a reload
        assert cache.budget_bytes == 1 << 30
        cache.oriented(graph, SortedSet, "DGR")
        assert cache.misses == 0 and cache.hits > 0

    def test_pins_only_graphs_a_worker_cannot_reload(self, runner):
        graph = load_dataset("sc-ht-mini")
        empty = MaterializationCache().export_graph_state(graph)
        runner._seed_worker(
            {"sc-ht-mini": (graph, empty), "mine": (graph, empty)}, None
        )
        assert list(runner._WORKER_STATE) == ["sc-ht-mini", "mine"]
        assert runner._WORKER_PINNED == {"mine"}
