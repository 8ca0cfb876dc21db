"""Session warm/cold latency and resident-pool reuse bench.

The :class:`~repro.platform.session.MiningSession` exists to amortize
state across requests; this bench measures exactly that amortization and
persists it as ``results/session_bench.json`` (schema
``gms-session-bench/v3``) for the plot script:

* **cold vs warm query latency** — the same query twice in one session;
  the second run hits the shared ``MaterializationCache`` instead of
  recomputing orderings and neighborhood conversions.  Run on the real
  (or real-scale fallback) datasets ``ca-grqc`` / ``email-eu-core`` so
  materialization is a meaningful fraction of the request;
* **pool reuse speedup** — a batch of queries through a 2-worker
  *resident* pool, three ways: the first batch on a fresh session (pays
  pool start + worker warm-up), the same batch again (resident pool,
  warm workers), and the per-call-pool baseline the pre-session API used
  (a throwaway pool per batch).  The first batch also records the
  payload bytes it shipped: the workers inherit the session's warm state
  by fork, so only the per-task arguments are shipped.

Script form::

    PYTHONPATH=src python benchmarks/bench_session.py [--quick]

Pytest form: asserts warm queries actually hit the cache and that the
artifact has the advertised shape (timing ratios are reported, not
asserted — CI machines are too noisy to gate on them).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional

from repro.core import counters as _counters
from repro.graph.datasets import dataset_provenance
from repro.platform.bench import print_table, write_artifact
from repro.platform.session import MiningSession
from repro.platform.suite import ExperimentPlan
from repro.platform.runner import run_suite_parallel

SCHEMA = "gms-session-bench/v3"

#: The cold/warm measurement matrix: real-scale inputs, one cheap and one
#: materialization-heavy kernel each.
DEFAULT_QUERIES = [
    {"dataset": "ca-grqc", "kernel": "tc", "backend": "bitset"},
    {"dataset": "ca-grqc", "kernel": "4clique", "backend": "bitset",
     "ordering": "degeneracy"},
    {"dataset": "email-eu-core", "kernel": "tc", "backend": "bitset"},
    {"dataset": "email-eu-core", "kernel": "kclique", "backend": "bloom",
     "ordering": "degeneracy", "k": 4},
]

QUICK_QUERIES = [
    {"dataset": "sc-ht-mini", "kernel": "tc", "backend": "bitset"},
    {"dataset": "sc-ht-mini", "kernel": "4clique", "backend": "bitset",
     "ordering": "degeneracy"},
]

#: The pool-reuse batch: one plan small enough to run three times.
def _batch_plan(dataset: str) -> ExperimentPlan:
    return ExperimentPlan(
        datasets=(dataset,),
        kernels=("tc", "4clique"),
        set_classes=("bitset",),
        orderings=("DGR",),
        repeats=1,
        workers=2,
    )


def _run_query(session: MiningSession, spec: Dict) -> Dict[str, object]:
    query = session.query(
        spec["kernel"], k=int(spec.get("k", 4))
    ).on(spec["dataset"]).backend(spec["backend"])
    if "ordering" in spec:
        query = query.ordering(spec["ordering"])
    result = query.run()
    return result


def bench_cold_warm(queries: List[Dict]) -> List[Dict[str, object]]:
    """Each query twice in one fresh session; report both latencies."""
    rows: List[Dict[str, object]] = []
    with MiningSession() as session:
        for spec in queries:
            cold = _run_query(session, spec)
            warm = _run_query(session, spec)
            rows.append({
                "dataset": spec["dataset"],
                "provenance": dataset_provenance(spec["dataset"]),
                "kernel": cold.kernel,
                "backend": spec["backend"],
                "ordering": cold.ordering,
                "value": cold.value,
                "cold_seconds": cold.wall_seconds,
                "warm_seconds": warm.wall_seconds,
                "warm_speedup": (
                    cold.wall_seconds / warm.wall_seconds
                    if warm.wall_seconds > 0 else 0.0
                ),
                "warm_cache_hits": warm.cache_hits,
                "warm_cache_misses": warm.cache_misses,
            })
    return rows


def bench_pool_reuse(dataset: str) -> Dict[str, object]:
    """One parallel plan, three ways: cold pool, resident pool, per-call pool."""
    plan = _batch_plan(dataset)
    with MiningSession(workers=2) as session:
        before = _counters.snapshot()
        t0 = time.perf_counter()
        session.run_plan(plan)
        first = time.perf_counter() - t0  # pool start + worker warm-up
        shipped = before.delta(_counters.snapshot())
        t0 = time.perf_counter()
        session.run_plan(plan)
        resident = time.perf_counter() - t0  # resident pool, warm workers
        pool_starts = session.pool_starts
    t0 = time.perf_counter()
    run_suite_parallel(plan)  # throwaway pool per call (historical path)
    per_call = time.perf_counter() - t0
    return {
        "dataset": dataset,
        "provenance": dataset_provenance(dataset),
        "workers": plan.workers,
        "pool_starts": pool_starts,
        "first_batch_payload_bytes_shipped": shipped.payload_bytes_shipped,
        "first_batch_payload_tasks": shipped.payload_tasks,
        "first_batch_seconds": first,
        "resident_batch_seconds": resident,
        "per_call_pool_seconds": per_call,
        "reuse_speedup_vs_cold": first / resident if resident > 0 else 0.0,
        "reuse_speedup_vs_per_call": (
            per_call / resident if resident > 0 else 0.0
        ),
    }


def run_bench(quick: bool = False) -> Dict[str, object]:
    queries = QUICK_QUERIES if quick else DEFAULT_QUERIES
    pool_dataset = "sc-ht-mini" if quick else "ca-grqc"
    return {
        "schema": SCHEMA,
        "quick": quick,
        "cold_warm": bench_cold_warm(queries),
        "pool_reuse": [bench_pool_reuse(pool_dataset)],
    }


def _print_payload(payload: Dict[str, object]) -> None:
    print_table(
        "Session cold vs warm query latency",
        ["dataset", "kernel", "backend", "cold ms", "warm ms", "speedup",
         "warm hits"],
        [
            [r["dataset"], r["kernel"], r["backend"],
             f"{1000 * r['cold_seconds']:.1f}",
             f"{1000 * r['warm_seconds']:.1f}",
             f"{r['warm_speedup']:.2f}x",
             r["warm_cache_hits"]]
            for r in payload["cold_warm"]
        ],
    )
    print_table(
        "Resident-pool reuse (2 workers)",
        ["dataset", "first batch ms", "shipped B / tasks", "resident ms",
         "per-call pool ms", "vs cold", "vs per-call"],
        [
            [r["dataset"],
             f"{1000 * r['first_batch_seconds']:.0f}",
             f"{r['first_batch_payload_bytes_shipped']:,} / "
             f"{r['first_batch_payload_tasks']}",
             f"{1000 * r['resident_batch_seconds']:.0f}",
             f"{1000 * r['per_call_pool_seconds']:.0f}",
             f"{r['reuse_speedup_vs_cold']:.2f}x",
             f"{r['reuse_speedup_vs_per_call']:.2f}x"]
            for r in payload["pool_reuse"]
        ],
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="session warm/cold + pool-reuse bench"
    )
    parser.add_argument("--quick", action="store_true",
                        help="miniature inputs only (CI smoke)")
    ns = parser.parse_args(argv)
    payload = run_bench(quick=ns.quick)
    _print_payload(payload)
    path = write_artifact("session_bench", payload)
    print(f"\nartifact: {path}")
    return 0


# ---------------------------------------------------------------------------
# Pytest form.
# ---------------------------------------------------------------------------


def test_session_bench_quick():
    payload = run_bench(quick=True)
    assert payload["schema"] == SCHEMA
    for row in payload["cold_warm"]:
        # The warm run must be served from the session cache.
        assert row["warm_cache_hits"] > 0
        assert row["warm_cache_misses"] == 0
        assert row["cold_seconds"] > 0 and row["warm_seconds"] > 0
    (reuse,) = payload["pool_reuse"]
    assert reuse["pool_starts"] == 1
    assert reuse["first_batch_seconds"] > 0
    assert reuse["resident_batch_seconds"] > 0
    # One task per cell, and no warm state shipped on top of the tasks:
    # a task's pickled (plan, dataset, cell) is well under 4 KB.
    assert reuse["first_batch_payload_tasks"] > 0
    assert reuse["first_batch_payload_bytes_shipped"] < \
        4096 * reuse["first_batch_payload_tasks"]


if __name__ == "__main__":
    raise SystemExit(main())
