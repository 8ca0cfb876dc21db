"""The declarative experiment suite and the cross-dataset aggregator.

Covers the :class:`~repro.platform.suite.ExperimentPlan` resolution rules,
the unified ``results/suite_<dataset>.json`` artifact schema, the per-cell
counter threading, the kernel registry hook, the ``python -m repro suite``
/ ``python -m repro aggregate`` subcommands, and the aggregate's
per-backend speed-vs-accuracy folding of both artifact families.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from itertools import product

import pytest

from repro.__main__ import main
from repro.core import BitSet
from repro.graph import load_dataset
from repro.graph.set_graph import MaterializationCache, SetGraph
from repro.platform.aggregate import aggregate_results
from repro.platform.runner import diff_payloads
from repro.platform.session import MiningSession
from repro.platform.suite import (
    SUITE_KERNELS,
    ExperimentPlan,
    plan_from_argv,
    register_suite_kernel,
    run_cell,
    task_profile,
)

SMOKE = ExperimentPlan.smoke()


@pytest.fixture(scope="module")
def smoke_payload():
    """One smoke-suite run shared by the schema/coverage assertions."""
    with MiningSession.from_plan(SMOKE) as session:
        payloads = session.run_plan(SMOKE)
    assert len(payloads) == 1
    return payloads[0]


class TestExperimentPlan:
    def test_smoke_matrix_dimensions(self):
        # The CI matrix: 2 backends × 2 orderings × 3 kernels.
        assert len(SMOKE.set_classes) == 2
        assert len(SMOKE.orderings) == 2
        assert len(SMOKE.kernels) == 3

    def test_reference_backend_always_runs_first(self):
        assert SMOKE.resolved_set_classes()[0] == "sorted"
        explicit = ExperimentPlan(set_classes=("bitset", "sorted", "hash"))
        assert explicit.resolved_set_classes() == ["sorted", "bitset", "hash"]

    def test_empty_selections_mean_everything_registered(self):
        plan = ExperimentPlan(kernels=(), set_classes=())
        assert [k.name for k in plan.resolved_kernels()] == list(SUITE_KERNELS)
        resolved = plan.resolved_set_classes()
        for name in ("sorted", "bitset", "roaring", "bloom", "kmv"):
            assert name in resolved

    def test_unknown_kernel_and_ordering_rejected(self):
        with pytest.raises(KeyError, match="unknown suite kernels"):
            ExperimentPlan(kernels=("bogus",)).resolved_kernels()
        with pytest.raises(KeyError, match="unknown orderings"):
            ExperimentPlan(orderings=("BOGUS",)).resolved_orderings()

    def test_plan_from_argv_roundtrip(self):
        plan = plan_from_argv([
            "--datasets", "sc-ht-mini", "--kernels", "tc", "bk",
            "--set-classes", "bitset", "--orderings", "DGR",
            "--k", "5", "--repeats", "2", "--bloom-fpr", "0.05",
        ])
        assert plan.datasets == ("sc-ht-mini",)
        assert plan.kernels == ("tc", "bk")
        assert plan.set_classes == ("bitset",)
        assert plan.k == 5 and plan.repeats == 2
        assert plan.bloom_fpr == 0.05

    def test_smoke_flag_overrides_selection(self):
        assert plan_from_argv(["--smoke", "--k", "7"]) == SMOKE


class TestRunSuite:
    def test_every_kernel_under_every_backend(self, smoke_payload):
        backends = set(SMOKE.set_classes) | {"sorted"}
        seen = {
            (c["kernel"], c["set_class"]) for c in smoke_payload["cells"]
        }
        for kernel, backend in product(SMOKE.kernels, backends):
            assert (kernel, backend) in seen

    def test_unified_schema_fields(self, smoke_payload):
        assert smoke_payload["schema"] == "gms-suite/v3"
        for field in ("dataset", "num_nodes", "num_edges", "plan",
                      "reference_backend", "materialization", "counters",
                      "execution", "cells"):
            assert field in smoke_payload
        for cell in smoke_payload["cells"]:
            for field in ("kernel", "ordering", "set_class",
                          "resolved_class", "exact", "value", "reference",
                          "rel_error", "seconds", "set_ops", "point_ops",
                          "memory_traffic", "sketch_builds", "extras"):
                assert field in cell, field

    def test_per_kernel_extras(self, smoke_payload):
        # BK cells expose the recursion size plus a task profile, kClist
        # cells the task profile, and the scalar kernels nothing — the
        # work profiles the aggregate folds into distribution stats.  The
        # task count is fixed by the graph on every backend, sketches
        # included: one 4clique task per arc of the oriented DAG, one
        # kclique or bk task per vertex.
        plan = ExperimentPlan(kernels=("kclique",),
                              set_classes=("bitset", "bloom"),
                              orderings=("DGR",))
        with MiningSession.from_plan(plan) as session:
            (kclique,) = session.run_plan(plan)
        n, m = smoke_payload["num_nodes"], smoke_payload["num_edges"]
        cells = smoke_payload["cells"] + kclique["cells"]
        assert {c["kernel"] for c in cells} == {"tc", "4clique", "kclique",
                                                "bk"}
        for cell in cells:
            extras = cell["extras"]
            if cell["kernel"] == "tc":
                assert extras == {}
                continue
            assert extras["tasks"] == (m if cell["kernel"] == "4clique"
                                       else n), cell
            seconds = extras["task_seconds"]
            assert 0 < seconds["max"] <= seconds["sum"]
            assert "task_costs" not in extras
            if cell["kernel"] == "bk":
                assert extras["recursive_calls"] > 0
            else:
                assert "recursive_calls" not in extras

    def test_payload_counters_merge_cell_deltas(self, smoke_payload):
        totals = smoke_payload["counters"]
        for field in ("set_ops", "point_ops", "sketch_builds",
                      "memory_traffic"):
            assert totals[field] == sum(
                c[field] for c in smoke_payload["cells"]
            )
        assert totals["set_ops"] > 0

    def test_execution_block_models_every_policy(self, smoke_payload):
        execution = smoke_payload["execution"]
        assert execution["workers"] == 1
        assert execution["schedule"] == "sequential"
        assert execution["measured_seconds"] > 0
        total = execution["cells_seconds_total"]
        assert total == pytest.approx(
            sum(c["seconds"] for c in smoke_payload["cells"])
        )
        for policy in ("static", "dynamic", "stealing"):
            modeled = execution["modeled"][policy]
            # One worker: the model degenerates to the sequential sum.
            assert modeled["makespan_seconds"] == pytest.approx(total)
            assert modeled["speedup"] == pytest.approx(1.0)

    def test_exact_backends_match_reference(self, smoke_payload):
        exact_cells = [c for c in smoke_payload["cells"] if c["exact"]]
        assert exact_cells
        assert all(c["rel_error"] == 0.0 for c in exact_cells)
        assert all(c["value"] == c["reference"] for c in exact_cells)

    def test_ordering_free_kernels_run_once_per_backend(self, smoke_payload):
        tc_cells = [c for c in smoke_payload["cells"] if c["kernel"] == "tc"]
        assert all(c["ordering"] == "-" for c in tc_cells)
        # One cell per backend (2 planned + the reference).
        assert len(tc_cells) == len(SMOKE.set_classes) + 1

    def test_counters_threaded_through_cells(self, smoke_payload):
        # Set-algebra kernels must meter bulk set ops...
        assert all(
            c["set_ops"] > 0
            for c in smoke_payload["cells"] if c["kernel"] == "tc"
        )
        # ...and approximate backends must meter their sketch builds.
        # (tc's sketches live in the warmed materialization cache, so the
        # per-outer-vertex pivot sketches of sketch-pivot BK are the cells
        # where per-run builds must show.)
        bloom_bk = [
            c for c in smoke_payload["cells"]
            if c["set_class"] == "bloom" and c["kernel"] == "bk"
        ]
        assert bloom_bk and all(c["sketch_builds"] > 0 for c in bloom_bk)

    def test_materialization_cache_shared_across_cells(self, smoke_payload):
        stats = smoke_payload["materialization"]
        assert stats["hits"] > 0
        # 3 kernels × 3 backends × 2 orderings would be 18 oriented
        # materializations without the cache; sharing must cut that down.
        assert stats["oriented"] < 18

    def test_cache_budget_does_not_change_the_artifact(self, smoke_payload):
        # A 1-byte budget keeps nothing, so every pass rebuilds what it
        # reads; the cache meters those builds apart from the cells, so
        # the artifact still equals the unbounded one up to timing.
        plan = replace(SMOKE, cache_budget_bytes=1)
        with MiningSession.from_plan(plan) as session:
            tight = session.run_plan(plan)[0]
        assert tight["materialization"]["evictions"] > 0
        assert diff_payloads(smoke_payload, tight) == []

    def test_materialization_reports_measured_build_seconds(self):
        with MiningSession.from_plan(SMOKE) as session:
            cold = session.run_plan(SMOKE)[0]["materialization"]
            warm = session.run_plan(SMOKE)[0]["materialization"]
            cache = session.stats()["cache"]
        assert cold["build_seconds"] > 0
        assert warm["build_seconds"] == 0.0 and warm["misses"] == 0
        assert cache["build_seconds"] == cold["build_seconds"]

    def test_cold_cell_seconds_exclude_the_cache_sizing(self, monkeypatch):
        # Sizing a SetGraph for the cache budget walks every neighborhood;
        # it is part of the build, so a cold cell must not pay for it.
        sizing = SetGraph.storage_bytes

        def slow_sizing(sg):
            time.sleep(0.05)
            return sizing(sg)

        monkeypatch.setattr(SetGraph, "storage_bytes", slow_sizing)
        cache = MaterializationCache()
        cell = run_cell(load_dataset("sc-ht-mini"), BitSet,
                        SUITE_KERNELS["tc"], "bitset", "DGR", SMOKE, cache)
        assert cache.misses == 1
        assert cell["seconds"] < 0.05
        assert cache.build_seconds >= 0.05

    def test_custom_kernel_joins_the_sweep(self):
        def _edges(graph, set_cls, ordering, plan, cache):
            sg = cache.set_graph(graph, set_cls)
            return sum(sg.out_degree(v) for v in sg.vertices()) // 2

        register_suite_kernel("edges", _edges, "edge count (test kernel)",
                              uses_ordering=False)
        try:
            plan = ExperimentPlan(
                datasets=("sc-ht-mini",), kernels=("edges",),
                set_classes=("bitset",), orderings=("DGR",),
            )
            with MiningSession.from_plan(plan) as session:
                payload = session.run_plan(plan)[0]
            cells = payload["cells"]
            assert {c["kernel"] for c in cells} == {"edges"}
            assert all(c["value"] == payload["num_edges"] for c in cells)
            assert all(c["rel_error"] == 0.0 for c in cells)
        finally:
            del SUITE_KERNELS["edges"]


class TestSuiteCommand:
    def test_suite_smoke_writes_artifact(self, tmp_path, monkeypatch, capsys):
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        assert main(["suite", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "Experiment suite" in out
        artifact = tmp_path / "suite_sc-ht-mini.json"
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == "gms-suite/v3"
        assert payload["cells"]

    def test_suite_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "suite" in out and "aggregate" in out


class TestAggregate:
    @pytest.fixture
    def results_dir(self, tmp_path, monkeypatch, capsys):
        """A results dir holding two suite artifacts."""
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        assert main(["suite", "--smoke"]) == 0
        assert main(["suite", "--datasets", "usa-roads-mini", "--kernels",
                     "tc", "4clique-rec", "--set-classes", "kmv",
                     "--orderings", "DGR", "--kmv-k", "8"]) == 0
        capsys.readouterr()
        return tmp_path

    def test_merges_every_suite_artifact(self, results_dir):
        payload = aggregate_results(str(results_dir))
        assert payload["schema"] == "gms-aggregate/v3"
        assert payload["datasets"] == ["sc-ht-mini", "usa-roads-mini"]
        assert payload["sources"] == {"suite": [
            "suite_sc-ht-mini.json", "suite_usa-roads-mini.json"]}
        backends = payload["backends"]
        # Backends by registry name, whatever budget resolved them.
        assert sorted(backends) == ["bitset", "bloom", "kmv", "sorted"]
        # sorted ran both plans' kernels on both datasets.
        assert sorted(backends["sorted"]["per_kernel"]) == [
            "4clique", "4clique-rec", "bk", "tc"]
        assert backends["sorted"]["per_kernel"]["tc"]["cells"] == 2
        assert sorted(backends["kmv"]["per_kernel"]) == ["4clique-rec", "tc"]

    def test_per_backend_speed_vs_accuracy_summary(self, results_dir):
        backends = aggregate_results(str(results_dir))["backends"]
        for name, summary in backends.items():
            assert summary["cells"] > 0
            assert 0.0 <= summary["mean_rel_error"] <= summary["max_rel_error"]
            assert summary["mean_seconds"] > 0.0
            assert summary["per_kernel"]
        assert backends["sorted"]["exact"]
        assert backends["sorted"]["max_rel_error"] == 0.0
        assert not backends["bloom"]["exact"]
        # The reference backend's speedup over itself is identically 1.
        assert backends["sorted"]["mean_speedup"] == pytest.approx(1.0)

    def test_cli_writes_aggregate_artifact(self, results_dir, capsys):
        assert main(["aggregate", "--results-dir", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "Cross-dataset aggregate" in out
        merged = json.loads((results_dir / "aggregate.json").read_text())
        assert merged["schema"] == "gms-aggregate/v3"

    def test_empty_results_dir_is_an_error(self, tmp_path, capsys):
        with pytest.raises(FileNotFoundError):
            aggregate_results(str(tmp_path))
        assert main(["aggregate", "--results-dir", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().out


def _synthetic_suite_artifact(dataset, workers, schedule, measured,
                              bk_calls, costs):
    """A minimal gms-suite/v2 payload with known per-task cost lists."""
    cell_seconds = [0.4, 0.1]
    modeled_makespan = 0.3 if workers > 1 else sum(cell_seconds)
    total = sum(cell_seconds)
    return {
        "schema": "gms-suite/v2",
        "dataset": dataset,
        "num_nodes": 10,
        "num_edges": 20,
        "plan": {},
        "reference_backend": "sorted",
        "materialization": {"hits": 0, "misses": 0},
        "counters": {"set_ops": 1, "point_ops": 0, "sketch_builds": 0,
                     "memory_traffic": 2},
        "execution": {
            "workers": workers,
            "schedule": schedule,
            "measured_seconds": measured,
            "cells_seconds_total": total,
            "measured_speedup": total / measured,
            "modeled": {
                schedule if workers > 1 else "dynamic": {
                    "makespan_seconds": modeled_makespan,
                    "speedup": total / modeled_makespan,
                },
            },
        },
        "cells": [
            {
                "kernel": "bk", "ordering": "DGR", "set_class": "sorted",
                "resolved_class": "SortedSet", "exact": True,
                "value": 5, "seconds": cell_seconds[0],
                "set_ops": 1, "point_ops": 0, "memory_traffic": 2,
                "sketch_builds": 0,
                "extras": {"recursive_calls": bk_calls,
                           "task_costs": costs},
                "reference": 5, "rel_error": 0.0,
            },
            {
                "kernel": "tc", "ordering": "-", "set_class": "sorted",
                "resolved_class": "SortedSet", "exact": True,
                "value": 3, "seconds": cell_seconds[1],
                "set_ops": 0, "point_ops": 0, "memory_traffic": 0,
                "sketch_builds": 0, "extras": {},
                "reference": 3, "rel_error": 0.0,
            },
        ],
    }


def _as_v3(payload):
    """The gms-suite/v3 twin of a v2 payload: lists become task profiles."""
    twin = json.loads(json.dumps(payload))
    twin["schema"] = "gms-suite/v3"
    for cell in twin["cells"]:
        costs = cell["extras"].pop("task_costs", None)
        if costs is not None:
            cell["extras"].update(task_profile(costs))
    return twin


def _write_artifact_pair(directory, v3):
    seq = _synthetic_suite_artifact(
        "alpha", 1, "sequential", 0.6,
        bk_calls=100, costs=[0.3, 0.1, 0.1, 0.1],
    )
    par = _synthetic_suite_artifact(
        "beta", 4, "static", 0.2,
        bk_calls=40, costs=[0.2, 0.2],
    )
    for payload in (seq, par):
        if v3:
            payload = _as_v3(payload)
        path = directory / f"suite_{payload['dataset']}.json"
        path.write_text(json.dumps(payload))
    return directory


class TestAggregateWorkDistribution:
    """The suite extras folded over a synthetic artifact pair, written
    both as v2 task_costs lists and as their v3 task-profile twins."""

    @pytest.fixture(params=["v2", "v3"])
    def results_dir(self, request, tmp_path):
        return _write_artifact_pair(tmp_path, v3=request.param == "v3")

    def test_v2_lists_and_v3_profiles_fold_identically(self, tmp_path):
        folded = {}
        for schema in ("v2", "v3"):
            directory = tmp_path / schema
            directory.mkdir()
            _write_artifact_pair(directory, v3=schema == "v3")
            payload = aggregate_results(str(directory))
            folded[schema] = payload["backends"]["sorted"]["per_kernel"]
        for key in ("tasks", "cost_imbalance", "recursive_calls"):
            assert folded["v2"]["bk"][key] == folded["v3"]["bk"][key], key
        assert folded["v2"] == folded["v3"]

    def test_work_distribution_summary(self, results_dir):
        payload = aggregate_results(str(results_dir))
        bk = payload["backends"]["sorted"]["per_kernel"]["bk"]
        # Totals sum across both artifacts; imbalance averages the
        # per-cell max/mean ratios: alpha 0.3/0.15 = 2.0, beta 1.0.
        assert bk["recursive_calls"] == 140
        assert bk["tasks"] == 6
        assert bk["cost_imbalance"] == pytest.approx((2.0 + 1.0) / 2)
        # Kernels without profiles carry no distribution fields.
        tc = payload["backends"]["sorted"]["per_kernel"]["tc"]
        assert "tasks" not in tc and "recursive_calls" not in tc

    def test_measured_vs_modeled_table(self, results_dir, capsys):
        payload = aggregate_results(str(results_dir))
        rows = {row["dataset"]: row for row in payload["parallel"]}
        assert rows["alpha"]["workers"] == 1
        assert rows["alpha"]["measured_speedup"] == pytest.approx(0.5 / 0.6)
        beta = rows["beta"]
        assert beta["schedule"] == "static"
        assert beta["modeled_speedup"] == pytest.approx(0.5 / 0.3)
        assert beta["measured_speedup"] == pytest.approx(0.5 / 0.2)
        assert beta["model_accuracy"] == pytest.approx(
            beta["measured_speedup"] / beta["modeled_speedup"]
        )
        # The CLI prints the measured-vs-modeled table.
        assert main(["aggregate", "--results-dir", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "Measured vs modeled parallel speedup" in out
        assert "beta" in out

    def test_v1_artifacts_still_fold(self, results_dir):
        # A legacy artifact (no execution block, no extras) must not
        # break the aggregate — it just contributes no new stats.
        legacy = _synthetic_suite_artifact(
            "gamma", 1, "sequential", 0.6, bk_calls=1, costs=[],
        )
        legacy["schema"] = "gms-suite/v1"
        del legacy["execution"]
        del legacy["counters"]
        for cell in legacy["cells"]:
            del cell["extras"]
        (results_dir / "suite_gamma.json").write_text(json.dumps(legacy))
        payload = aggregate_results(str(results_dir))
        assert "gamma" in payload["datasets"]
        assert {r["dataset"] for r in payload["parallel"]} == {
            "alpha", "beta"
        }
