"""Closed-loop load bench for the HTTP serving tier.

The question ``python -m repro serve --http`` raises is service-shaped,
not kernel-shaped: what latency does a *client* observe, and how does
throughput move with the session's worker count and the offered
concurrency?  This bench answers it with a closed-loop generator — every
client thread keeps exactly one request in flight over its own
keep-alive connection, so offered load follows service rate and the
measured latency is queueing-free at ``concurrency=1`` and
queueing-dominated at higher fan-in (all session work serializes through
the server's single session executor; extra workers only help requests
whose *plans* fan out across the pool).

The matrix is ``workers × concurrency`` over one warmed dataset
(default ``ca-grqc``); each cell reports client-side p50/p99 latency and
end-to-end QPS, plus the server's own admission gauges.  Results land in
``results/serve_bench.json`` (schema ``gms-serve-bench/v1``).

Script form::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full matrix
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI smoke

Pytest form: the smoke matrix on the mini dataset.
"""

from __future__ import annotations

import argparse
import http.client
import json
import statistics
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro.platform.bench import print_table, write_artifact
from repro.platform.http import running_server
from repro.platform.session import MiningSession

SCHEMA = "gms-serve-bench/v1"

#: The request mix: one cheap kernel and one materialization-heavy one,
#: all warm (the server session is pre-warmed before the clock starts).
def _request_mix(dataset: str) -> List[Dict[str, object]]:
    return [
        {"kernel": "tc", "dataset": dataset, "backend": "bitset"},
        {"kernel": "4clique", "dataset": dataset, "backend": "bitset",
         "ordering": "degeneracy"},
    ]


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _client_loop(port: int, requests: List[bytes], latencies: List[float],
                 errors: List[str]) -> None:
    """One closed-loop client: issue *requests* serially, record latency."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        for body in requests:
            t0 = time.perf_counter()
            conn.request("POST", "/query", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
            elapsed = time.perf_counter() - t0
            if response.status == 429:
                # Closed-loop clients respect the server's pushback the
                # way a well-behaved caller would: wait, then reissue.
                time.sleep(int(response.getheader("Retry-After", "1")))
                conn.request("POST", "/query", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                payload = response.read()
                elapsed = time.perf_counter() - t0
            if response.status != 200:
                errors.append(payload.decode(errors="replace")[:200])
                continue
            latencies.append(elapsed)
    finally:
        conn.close()


def bench_cell(dataset: str, workers: int, concurrency: int,
               requests_per_client: int) -> Dict[str, object]:
    """One matrix cell: a server at *workers*, *concurrency* clients."""
    mix = _request_mix(dataset)
    per_client = [
        json.dumps(mix[i % len(mix)]).encode()
        for i in range(requests_per_client)
    ]
    with MiningSession(workers=workers) as session:
        # Warm the materializations the mix touches so the measurement
        # window is the steady state, not first-touch materialization.
        session.warm(dataset, backends=("bitset",),
                     orderings=("DGR",))
        with tempfile.TemporaryDirectory() as job_root:
            with running_server(
                session, max_inflight=5 * max(4, concurrency),
                job_root=job_root,
            ) as server:
                latencies: List[float] = []
                errors: List[str] = []
                threads = [
                    threading.Thread(
                        target=_client_loop,
                        args=(server.port, per_client, latencies, errors),
                    )
                    for _ in range(concurrency)
                ]
                t0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                window = time.perf_counter() - t0
                admission = server.admission.stats()
    if errors:
        raise RuntimeError(f"serve bench requests failed: {errors[:3]}")
    total = len(latencies)
    return {
        "dataset": dataset,
        "workers": workers,
        "concurrency": concurrency,
        "requests": total,
        "window_seconds": window,
        "qps": total / window if window > 0 else 0.0,
        "p50_seconds": _percentile(latencies, 0.50),
        "p99_seconds": _percentile(latencies, 0.99),
        "mean_seconds": statistics.fmean(latencies) if latencies else 0.0,
        "admitted": admission["admitted"],
        "rejected": admission["rejected"],
    }


def run_bench(smoke: bool = False) -> Dict[str, object]:
    if smoke:
        dataset, requests_per_client = "sc-ht-mini", 6
        matrix = [(1, 1), (1, 2), (2, 1), (2, 2)]
    else:
        dataset, requests_per_client = "ca-grqc", 20
        matrix = [(1, 1), (1, 4), (2, 1), (2, 4)]
    cells = [
        bench_cell(dataset, workers, concurrency, requests_per_client)
        for workers, concurrency in matrix
    ]
    return {
        "schema": SCHEMA,
        "smoke": smoke,
        "dataset": dataset,
        "requests_per_client": requests_per_client,
        "cells": cells,
    }


def _print_payload(payload: Dict[str, object]) -> None:
    print_table(
        f"HTTP serve latency/throughput ({payload['dataset']})",
        ["workers", "clients", "requests", "QPS", "p50 ms", "p99 ms",
         "rejected"],
        [
            [c["workers"], c["concurrency"], c["requests"],
             f"{c['qps']:.1f}",
             f"{1000 * c['p50_seconds']:.1f}",
             f"{1000 * c['p99_seconds']:.1f}",
             c["rejected"]]
            for c in payload["cells"]
        ],
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop load bench for repro serve --http"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="mini dataset, smaller matrix (CI form)")
    ns = parser.parse_args(argv)
    payload = run_bench(smoke=ns.smoke)
    _print_payload(payload)
    path = write_artifact("serve_bench", payload)
    print(f"artifact: {path}")
    return 0


# ---------------------------------------------------------------------------
# Pytest form.
# ---------------------------------------------------------------------------


def test_serve_bench_smoke():
    payload = run_bench(smoke=True)
    assert payload["schema"] == SCHEMA
    assert len(payload["cells"]) == 4
    for cell in payload["cells"]:
        assert cell["requests"] == (cell["concurrency"]
                                    * payload["requests_per_client"])
        assert cell["qps"] > 0
        assert 0 < cell["p50_seconds"] <= cell["p99_seconds"]


if __name__ == "__main__":
    raise SystemExit(main())
