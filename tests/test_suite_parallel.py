"""The parallel experiment-suite runtime (platform/runner.py).

The contract under test: sharding the plan's cells across a process pool
— under any of the three scheduling policies, work stealing included —
produces an artifact that is
cell-by-cell identical to the sequential run on every deterministic field
(counts, software counters, cross-check anchors, extras), with only the
wall-clock measurements free to differ.  Plus the sharding policies
themselves, the suite-diff CLI that CI runs between the two smoke
artifacts, and the measured-vs-modeled execution block.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.platform.runner import (
    _shards,
    diff_payloads,
    run_suite_parallel,
    strip_timing,
)
from repro.platform.session import MiningSession
from repro.platform.suite import ExperimentPlan
from repro.runtime.scheduler import static_chunks

#: A deliberately mixed plan: ordering-aware and ordering-free kernels,
#: the exact reference, an exact non-reference backend, and a sketched
#: backend (whose pivot recursion shape must also reproduce).
PLAN = ExperimentPlan(
    datasets=("sc-ht-mini",),
    kernels=("tc", "4clique", "bk"),
    set_classes=("bitset", "bloom"),
    orderings=("DGR", "ADG"),
    repeats=1,
)


def _run(plan):
    with MiningSession.from_plan(plan) as session:
        return session.run_plan(plan)[0]


@pytest.fixture(scope="module")
def sequential_payload():
    return _run(PLAN)


@pytest.fixture(scope="module")
def parallel_payloads():
    """workers=4 runs of the same plan, one per scheduling policy."""
    return {
        schedule: _run(replace(PLAN, workers=4, schedule=schedule))
        for schedule in ("static", "dynamic", "stealing")
    }


class TestDeterminism:
    @pytest.mark.parametrize("schedule", ["static", "dynamic", "stealing"])
    def test_parallel_artifact_identical_up_to_timing(
        self, sequential_payload, parallel_payloads, schedule
    ):
        # The satellite regression: a workers=4 run must produce a
        # cell-by-cell identical artifact (counts, counters, cross-check
        # fields; timing excluded) under both schedules.
        assert diff_payloads(
            sequential_payload, parallel_payloads[schedule]
        ) == []

    @pytest.mark.parametrize("schedule", ["static", "dynamic", "stealing"])
    def test_cell_order_is_canonical(
        self, sequential_payload, parallel_payloads, schedule
    ):
        # Shard completion order must never leak into the artifact.
        key = lambda c: (c["set_class"], c["kernel"], c["ordering"])
        assert (
            [key(c) for c in parallel_payloads[schedule]["cells"]]
            == [key(c) for c in sequential_payload["cells"]]
        )

    def test_strip_timing_drops_exactly_the_wall_clock(
        self, sequential_payload
    ):
        stripped = strip_timing(sequential_payload)
        for cell in stripped["cells"]:
            assert "seconds" not in cell
            assert "task_costs" not in cell["extras"]
        # Deterministic work profiles survive the projection.
        bk = [c for c in stripped["cells"] if c["kernel"] == "bk"]
        assert all(c["extras"]["recursive_calls"] > 0 for c in bk)
        # The projection is JSON-stable (what suite-diff compares).
        json.dumps(stripped)

    def test_diff_reports_a_doctored_cell(self, sequential_payload):
        doctored = json.loads(json.dumps(sequential_payload))
        doctored["cells"][3]["value"] += 1
        problems = diff_payloads(sequential_payload, doctored)
        assert problems
        assert any("value" in p for p in problems)


class TestParallelExecutionBlock:
    @pytest.mark.parametrize("schedule", ["static", "dynamic", "stealing"])
    def test_measured_and_modeled_recorded(
        self, parallel_payloads, schedule
    ):
        execution = parallel_payloads[schedule]["execution"]
        assert execution["workers"] == 4
        assert execution["schedule"] == schedule
        assert execution["measured_seconds"] > 0
        assert execution["measured_speedup"] > 0
        modeled = execution["modeled"][schedule]
        # With 4 workers the model must predict real parallelism...
        assert 1.0 < modeled["speedup"] <= 4.0
        # ...and its makespan can never beat the critical path.
        cells = parallel_payloads[schedule]["cells"]
        assert modeled["makespan_seconds"] >= max(
            c["seconds"] for c in cells
        )

    def test_per_worker_caches_are_merged(self, parallel_payloads):
        mat = parallel_payloads["static"]["materialization"]
        assert mat["workers"] >= 2  # the pool really fanned out
        assert mat["hits"] + mat["misses"] > 0
        assert mat["evictions"] == 0  # unbounded budget in this plan
        assert mat["budget_bytes"] is None


class TestSharding:
    def test_static_chunks_partition(self):
        for n, w in [(0, 4), (1, 4), (7, 3), (12, 4), (5, 8)]:
            chunks = static_chunks(n, w)
            covered = [i for s, e in chunks for i in range(s, e)]
            assert covered == list(range(n))
            assert len(chunks) <= w
        with pytest.raises(ValueError):
            static_chunks(3, 0)

    def test_static_shards_are_contiguous(self):
        specs = [("b", "k", str(i)) for i in range(10)]
        shards = _shards(specs, 3, "static")
        assert [len(s) for s in shards] == [4, 4, 2]
        flat = [index for shard in shards for index, _ in shard]
        assert flat == list(range(10))

    def test_dynamic_shards_are_single_cells(self):
        specs = [("b", "k", str(i)) for i in range(5)]
        shards = _shards(specs, 3, "dynamic")
        assert [len(s) for s in shards] == [1] * 5

    def test_bad_execution_plans_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            MiningSession.from_plan(replace(PLAN, workers=0))
        with pytest.raises(ValueError, match="schedule"):
            run_suite_parallel(replace(PLAN, workers=2, schedule="guided"))
        with pytest.raises(ValueError, match="transport"):
            MiningSession.from_plan(replace(PLAN, transport="rdma"))


class TestSuiteDiffCommand:
    def test_cli_agrees_and_disagrees(self, tmp_path, capsys,
                                      sequential_payload):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(sequential_payload))
        b.write_text(json.dumps(sequential_payload))
        assert main(["suite-diff", str(a), str(b)]) == 0
        assert "agree up to timing" in capsys.readouterr().out

        doctored = json.loads(json.dumps(sequential_payload))
        doctored["cells"][0]["set_ops"] += 7
        b.write_text(json.dumps(doctored))
        assert main(["suite-diff", str(a), str(b)]) == 1
        assert "differ beyond timing" in capsys.readouterr().err

    def test_cli_ignores_pure_timing_changes(self, tmp_path, capsys,
                                             sequential_payload):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(sequential_payload))
        slower = json.loads(json.dumps(sequential_payload))
        for cell in slower["cells"]:
            cell["seconds"] *= 100
            if "task_costs" in cell["extras"]:
                cell["extras"]["task_costs"] = [
                    c * 100 for c in cell["extras"]["task_costs"]
                ]
        b.write_text(json.dumps(slower))
        assert main(["suite-diff", str(a), str(b)]) == 0
        capsys.readouterr()


class TestWorkersViaCli:
    def test_suite_smoke_workers_writes_identical_cells(
        self, tmp_path, monkeypatch, capsys
    ):
        # The CI job in miniature: sequential smoke, then --workers 2,
        # then the diff between the two artifacts.
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        assert main(["suite", "--smoke"]) == 0
        # Renamed off the suite_*.json glob, as in CI, so a later
        # aggregate over this dir would not fold the dataset twice.
        seq = tmp_path / "smoke_sequential.json"
        (tmp_path / "suite_sc-ht-mini.json").rename(seq)
        assert main(["suite", "--smoke", "--workers", "2",
                     "--schedule", "static"]) == 0
        out = capsys.readouterr().out
        assert "static × 2 worker(s)" in out
        assert "scheduler model predicts" in out
        par = tmp_path / "suite_sc-ht-mini.json"
        assert main(["suite-diff", str(seq), str(par)]) == 0
        payload = json.loads(par.read_text())
        assert payload["plan"]["workers"] == 2
        assert payload["execution"]["schedule"] == "static"
