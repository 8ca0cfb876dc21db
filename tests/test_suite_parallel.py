"""The parallel experiment-suite runtime (platform/runner.py).

The contract under test: running the plan's cells on a process pool
produces an artifact that is cell-by-cell identical to the sequential
run on every deterministic field (counts, software counters, cross-check
anchors, extras), with only the wall-clock measurements free to differ.
Plus the static chunking the makespan model uses, the suite-diff CLI
that CI runs between the two smoke artifacts, and the measured-vs-modeled
execution block.
"""

from __future__ import annotations

import json
import pickle
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.core import counters as _counters
from repro.platform import runner
from repro.platform.runner import diff_payloads, strip_timing
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


#: Pool sizes under test: the dispatcher's in-flight bound is the worker
#: count, so each size interleaves the cells differently.
POOL_SIZES = (2, 3, 4)


@pytest.fixture(scope="module")
def parallel_payloads():
    """One run of the same plan per pool size."""
    return {workers: _run(replace(PLAN, workers=workers))
            for workers in POOL_SIZES}


@pytest.fixture(scope="module")
def parallel_payload(parallel_payloads):
    """The workers=4 run."""
    return parallel_payloads[4]


class TestDeterminism:
    @pytest.mark.parametrize("workers", POOL_SIZES)
    def test_parallel_artifact_identical_up_to_timing(
        self, sequential_payload, parallel_payloads, workers
    ):
        # The satellite regression: a pool run must produce a
        # cell-by-cell identical artifact (counts, counters, cross-check
        # fields; timing excluded) whatever the pool size.
        assert diff_payloads(
            sequential_payload, parallel_payloads[workers]
        ) == []

    @pytest.mark.parametrize("workers", POOL_SIZES)
    def test_cell_order_is_canonical(
        self, sequential_payload, parallel_payloads, workers
    ):
        # Task completion order must never leak into the artifact.
        key = lambda c: (c["set_class"], c["kernel"], c["ordering"])
        assert (
            [key(c) for c in parallel_payloads[workers]["cells"]]
            == [key(c) for c in sequential_payload["cells"]]
        )

    def test_strip_timing_drops_exactly_the_wall_clock(
        self, sequential_payload
    ):
        stripped = strip_timing(sequential_payload)
        for cell in stripped["cells"]:
            assert "seconds" not in cell
            assert "task_seconds" not in cell["extras"]
        # Deterministic work profiles survive the projection: the task
        # count, which the graph fixes, and BK's recursion size.
        profiled = [c for c in stripped["cells"]
                    if c["kernel"] in ("4clique", "bk")]
        assert profiled
        assert all(c["extras"]["tasks"] > 0 for c in profiled)
        bk = [c for c in profiled if c["kernel"] == "bk"]
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
    @pytest.mark.parametrize("workers", POOL_SIZES)
    def test_measured_and_modeled_recorded(self, parallel_payloads, workers):
        payload = parallel_payloads[workers]
        execution = payload["execution"]
        assert execution["workers"] == workers
        assert execution["schedule"] == "dynamic"
        assert execution["measured_seconds"] > 0
        assert execution["measured_speedup"] > 0
        # Fig. 4's three modeled policies stay in the artifact.
        assert set(execution["modeled"]) == {"static", "dynamic",
                                             "stealing"}
        for modeled in execution["modeled"].values():
            # The model must predict real parallelism...
            assert 1.0 < modeled["speedup"] <= workers
            # ...and its makespan can never beat the critical path.
            assert modeled["makespan_seconds"] >= max(
                c["seconds"] for c in payload["cells"]
            )

    def test_per_worker_caches_are_merged(self, parallel_payload):
        mat = parallel_payload["materialization"]
        assert mat["workers"] >= 2  # the pool really fanned out
        assert mat["hits"] + mat["misses"] > 0
        assert mat["build_seconds"] > 0  # summed over the workers
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

    def test_bad_execution_plans_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            MiningSession.from_plan(replace(PLAN, workers=0))


class _ScriptedPool:
    """A stand-in executor whose tasks finish only when the dispatcher
    waits: each ``wait`` completes one in-flight task, picked by *order*
    (``"oldest"`` or ``"newest"`` first), and records how many tasks were
    in flight.  ``fail_at`` makes the task for that cell index raise.
    Task *i* is the cell ordered ``O<i>``."""

    def __init__(self, order="oldest", fail_at=None):
        self.order = order
        self.fail_at = fail_at
        self.submitted = []  # cell indexes, in submission order
        self.in_flight = []  # size of each wait() set

    def submit(self, fn, plan, dataset, spec):
        assert fn is runner._run_task
        future = Future()
        future.spec = spec
        future.index = int(spec[2][1:])
        self.submitted.append(future.index)
        return future

    def wait(self, fs, return_when):
        self.in_flight.append(len(fs))
        pick = min if self.order == "oldest" else max
        future = pick(fs, key=lambda f: f.index)
        if future.index == self.fail_at:
            future.set_exception(RuntimeError(f"cell {future.index} failed"))
        else:
            future.set_result({"spec": future.spec})
        return {future}, set(fs) - {future}


def _dispatch(monkeypatch, pool, workers, n_cells):
    """Drain the dispatcher over *n_cells* cells; the yielded indexes."""
    monkeypatch.setattr(runner, "wait", pool.wait)
    plan = replace(ExperimentPlan(), workers=workers)
    tasks = [(plan, "g", ("sorted", "tc", f"O{i}")) for i in range(n_cells)]
    done = []
    for index, result in runner.dispatch(pool, tasks, workers):
        # Each result comes back under its task's index, stamped with
        # the parent's completion time.
        assert result["spec"] == tasks[index][2]
        assert result["done_at"] > 0
        done.append(index)
    return done


class TestDispatcher:
    @pytest.mark.parametrize("workers", [1, 2, 3, 12])
    def test_in_flight_bounded_by_workers(self, monkeypatch, workers):
        pool = _ScriptedPool()
        done = _dispatch(monkeypatch, pool, workers, 8)
        assert sorted(done) == list(range(8))
        # Full until the cells run out, never above the bound.
        bound = min(workers, 8)
        assert max(pool.in_flight) == bound
        assert pool.in_flight[:8 - bound + 1] == [bound] * (8 - bound + 1)

    @pytest.mark.parametrize("order", ["oldest", "newest"])
    def test_submission_canonical_whatever_finishes_first(
        self, monkeypatch, order
    ):
        pool = _ScriptedPool(order=order)
        done = _dispatch(monkeypatch, pool, 3, 7)
        assert pool.submitted == list(range(7))
        # Results stream back in completion order, each cell once.
        assert sorted(done) == list(range(7))
        assert (done == list(range(7))) == (order == "oldest")

    def test_no_cells_no_tasks(self, monkeypatch):
        pool = _ScriptedPool()
        assert _dispatch(monkeypatch, pool, 4, 0) == []
        assert pool.submitted == [] and pool.in_flight == []

    def test_failed_task_raises_and_submits_no_more(self, monkeypatch):
        pool = _ScriptedPool(fail_at=0)
        with pytest.raises(RuntimeError, match="cell 0 failed"):
            _dispatch(monkeypatch, pool, 2, 6)
        assert pool.submitted == [0, 1]

    def test_each_task_meters_its_pickled_arguments(self, monkeypatch):
        plan = replace(ExperimentPlan(), workers=2)
        specs = [("sorted", "tc", f"O{i}") for i in range(5)]
        before = _counters.snapshot()
        _dispatch(monkeypatch, _ScriptedPool(), 2, 5)
        delta = before.delta(_counters.snapshot())
        assert delta.payload_tasks == 5
        assert delta.payload_bytes_shipped == sum(
            len(pickle.dumps((plan, "g", spec))) for spec in specs
        )


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
        scaled = 0
        for cell in slower["cells"]:
            cell["seconds"] *= 100
            if "task_seconds" in cell["extras"]:
                seconds = cell["extras"]["task_seconds"]
                seconds["sum"] *= 100
                seconds["max"] *= 100
                scaled += 1
        assert scaled
        b.write_text(json.dumps(slower))
        assert main(["suite-diff", str(a), str(b)]) == 0
        capsys.readouterr()

    def test_cli_catches_a_doctored_task_count(self, tmp_path, capsys,
                                               sequential_payload):
        # The task count is fixed by the graph, so it is part of every
        # identity gate: one task fewer in one cell fails suite-diff.
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(sequential_payload))
        doctored = json.loads(json.dumps(sequential_payload))
        cell = next(c for c in doctored["cells"] if c["kernel"] == "4clique")
        cell["extras"]["tasks"] -= 1
        b.write_text(json.dumps(doctored))
        assert main(["suite-diff", str(a), str(b)]) == 1
        assert "tasks" in capsys.readouterr().err


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
        assert main(["suite", "--smoke", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "dynamic × 2 worker(s)" in out
        assert "scheduler model predicts" in out
        par = tmp_path / "suite_sc-ht-mini.json"
        assert main(["suite-diff", str(seq), str(par)]) == 0
        payload = json.loads(par.read_text())
        assert payload["plan"]["workers"] == 2
        assert payload["execution"]["schedule"] == "dynamic"
