"""Driving the declarative experiment suite from the library API.

``python -m repro suite`` is the CLI face of the same machinery used
below: build an :class:`~repro.platform.suite.ExperimentPlan`, run it,
and consume the unified artifact payloads in-process.  The example also
shows the two extension hooks that make the sweep *registry-driven*:

* a custom **set backend** registered via
  :func:`repro.core.registry.register_set_class` joins the backend axis;
* a custom **kernel** registered via
  :func:`repro.platform.suite.register_suite_kernel` joins the kernel
  axis.

The second half re-runs the same plan on a session with a 2-worker
*resident* pool (the library face of ``python -m repro suite --workers
2``) and a bounded ``MaterializationCache``, and checks the parallel
artifact is cell-for-cell identical to the sequential one up to timing
— custom kernel included, since workers are forked from this process.
Plans run through :meth:`MiningSession.run_plan`, so the cache (and,
for parallel sessions, the worker pool) stays warm across every plan the
session serves; see ``examples/session_quickstart.py`` for the fluent
single-query face of the same session object.

Run with::

    PYTHONPATH=src python examples/suite_run.py
"""

from __future__ import annotations

from repro.platform import print_table
from repro.platform.runner import diff_payloads
from repro.platform.session import MiningSession
from repro.platform.suite import (
    SUITE_KERNELS,
    ExperimentPlan,
    register_suite_kernel,
)


def wedge_count(graph, set_cls, ordering, plan, cache):
    """Paths of length two — a one-liner against the SetGraph algebra."""
    sg = cache.set_graph(graph, set_cls)
    return sum(
        d * (d - 1) // 2
        for d in (sg.out_degree(v) for v in sg.vertices())
    )


def main() -> None:
    # 1. A custom kernel joins the sweep exactly like the built-ins did.
    register_suite_kernel("wedges", wedge_count,
                          "wedge (2-path) count", uses_ordering=False)

    # 2. Declare the sweep: datasets × orderings × backends × kernels,
    #    with the sketch budgets stated once.  bloom_fpr auto-sizes the
    #    shared Bloom budget from an accuracy target (2% false positives)
    #    instead of a raw bit count.
    plan = ExperimentPlan(
        datasets=("sc-ht-mini",),
        kernels=("tc", "4clique", "bk", "wedges"),
        set_classes=("bitset", "roaring", "bloom", "kmv"),
        orderings=("DGR", "ADG"),
        bloom_fpr=0.02,
        repeats=1,
    )

    # 3. Run it through a session: one shared MaterializationCache means
    #    each (backend, ordering) pair is converted exactly once, however
    #    many kernels — or later plans — consume it.
    session = MiningSession()
    payloads = session.run_plan(plan)

    for payload in payloads:
        mat = payload["materialization"]
        print_table(
            f"{payload['dataset']}: {len(payload['cells'])} cells, "
            f"{mat['misses']} materializations in "
            f"{1000 * mat['build_seconds']:.1f} ms ({mat['hits']} cache hits)",
            ["kernel", "order", "backend", "exact", "value", "rel err",
             "ms"],
            [
                [c["kernel"], c["ordering"], c["set_class"],
                 "yes" if c["exact"] else "no", f"{c['value']:,}",
                 f"{100 * c['rel_error']:.2f}%",
                 f"{1000 * c['seconds']:.1f}"]
                for c in payload["cells"]
            ],
        )

    # 4. The same cells, sliced per backend: the speed-vs-accuracy view
    #    `python -m repro aggregate` builds across datasets.
    cells = payloads[0]["cells"]
    for backend in ("bitset", "bloom"):
        mine = [c for c in cells if c["set_class"] == backend]
        worst = max(c["rel_error"] for c in mine)
        total_ms = 1000 * sum(c["seconds"] for c in mine)
        print(f"{backend:<8} worst error {100 * worst:.2f}%  "
              f"total kernel time {total_ms:.1f} ms")

    # 5. The same plan through the process-pool runtime, with the
    #    per-worker MaterializationCache bounded to 16 MiB.  The artifact
    #    must agree with the sequential run on every deterministic field
    #    (suite-diff's check) — only the timing differs.  That holds
    #    under any budget: a pass that rebuilds what was evicted has the
    #    rebuild, metered by the cache, taken out of its cell.
    with MiningSession(workers=2,
                       cache_budget_bytes=16 << 20) as pool_session:
        parallel = pool_session.run_plan(plan)[0]
    assert diff_payloads(payloads[0], parallel) == []
    execution = parallel["execution"]
    modeled = execution["modeled"][execution["schedule"]]
    mat = parallel["materialization"]
    print(f"\nparallel run ({execution['schedule']} x "
          f"{execution['workers']} workers): "
          f"{1000 * execution['measured_seconds']:.1f} ms wall, "
          f"{execution['measured_speedup']:.2f}x over summed cell times "
          f"(scheduler model: {modeled['speedup']:.2f}x); "
          f"pool-wide cache: {mat['hits']} hits, {mat['misses']} misses, "
          f"{mat['evictions']} evictions under the byte budget")
    print("parallel artifact identical to sequential up to timing: OK")

    session.close()
    del SUITE_KERNELS["wedges"]  # leave the registry as we found it


if __name__ == "__main__":
    main()
