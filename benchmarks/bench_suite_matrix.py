"""Experiment-suite matrix bench (the unified kernel × backend sweep).

The script form runs one :class:`~repro.platform.suite.ExperimentPlan`
through the same entry point as ``python -m repro suite``::

    PYTHONPATH=src python benchmarks/bench_suite_matrix.py --smoke
    PYTHONPATH=src python benchmarks/bench_suite_matrix.py --smoke \
        --workers 4
    PYTHONPATH=src python benchmarks/bench_suite_matrix.py \
        --datasets sc-ht-mini --set-classes sorted bitset bloom kmv

The pytest form asserts the unified-artifact shape the CI upload step
publishes: every planned kernel runs under every planned backend, exact
backends agree bit-for-bit with the reference, approximate backends carry
a measured (not assumed) relative error, and the shared materialization
cache actually de-duplicates the per-(backend, ordering) conversions.
The parallel form additionally asserts the process-pool runner's artifact
is cell-for-cell identical to the sequential one up to timing, and that
the measured wall-clock lands next to the scheduler-model prediction.
"""

from __future__ import annotations

import json
import os
from itertools import product

import pytest

from repro.platform.session import MiningSession
from repro.platform.suite import (
    ExperimentPlan,
    main as suite_main,
)
from repro.platform.bench import write_artifact


def _run_plan(plan: ExperimentPlan):
    """One throwaway session per measured run."""
    with MiningSession.from_plan(plan) as session:
        return session.run_plan(plan)


@pytest.mark.benchmark(group="suite")
def test_suite_smoke_matrix(benchmark, show_table):
    """The CI smoke plan, with the artifact schema asserted."""
    plan = ExperimentPlan.smoke()
    payloads = benchmark.pedantic(
        lambda: _run_plan(plan), rounds=1, iterations=1
    )
    assert len(payloads) == len(plan.datasets) == 1
    payload = payloads[0]
    path = write_artifact(f"suite_{payload['dataset']}", payload)
    assert os.path.exists(path)
    with open(path) as handle:
        on_disk = json.load(handle)
    assert on_disk["schema"] == "gms-suite/v3"

    cells = payload["cells"]
    show_table(
        f"suite — {payload['dataset']}",
        ["kernel", "order", "backend", "exact", "value", "rel err"],
        [
            [c["kernel"], c["ordering"], c["set_class"],
             c["exact"], c["value"], f"{100 * c['rel_error']:.2f}%"]
            for c in cells
        ],
    )

    # Coverage: every kernel × backend pair of the plan has a cell (the
    # reference backend rides along with the two planned ones).
    backends = set(plan.set_classes) | {payload["reference_backend"]}
    seen = {(c["kernel"], c["set_class"]) for c in cells}
    for kernel, backend in product(plan.kernels, backends):
        assert (kernel, backend) in seen
    # Exact backends agree with the reference on every cell.
    assert all(c["rel_error"] == 0.0 for c in cells if c["exact"])
    # The shared cache de-duplicates materializations across cells.
    assert payload["materialization"]["hits"] > 0


if __name__ == "__main__":
    raise SystemExit(suite_main())


@pytest.mark.benchmark(group="suite")
def test_suite_parallel_matches_sequential(benchmark, show_table):
    """The smoke plan through the 2-worker pool: identical up to timing."""
    from dataclasses import replace

    from repro.platform.runner import diff_payloads

    sequential = _run_plan(ExperimentPlan.smoke())[0]
    plan = replace(ExperimentPlan.smoke(), workers=2)
    payloads = benchmark.pedantic(
        lambda: _run_plan(plan), rounds=1, iterations=1
    )
    parallel = payloads[0]
    assert diff_payloads(sequential, parallel) == []

    execution = parallel["execution"]
    modeled = execution["modeled"]["dynamic"]
    show_table(
        "suite parallel — measured vs modeled (2 workers, dynamic)",
        ["metric", "value"],
        [
            ["cells", len(parallel["cells"])],
            ["cells total", f"{1000 * execution['cells_seconds_total']:.1f} ms"],
            ["measured wall", f"{1000 * execution['measured_seconds']:.1f} ms"],
            ["measured speedup", f"{execution['measured_speedup']:.2f}x"],
            ["modeled makespan", f"{1000 * modeled['makespan_seconds']:.1f} ms"],
            ["modeled speedup", f"{modeled['speedup']:.2f}x"],
        ],
    )
    assert execution["workers"] == 2
    assert modeled["speedup"] > 1.0
