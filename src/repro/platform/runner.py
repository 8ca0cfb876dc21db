"""Process-pool execution of the experiment suite.

A sequential session executes every cell of the kernel × backend ×
ordering matrix in-process; this module is the real-parallel runtime
behind ``plan.workers > 1`` (CLI: ``python -m repro suite --workers N``).
It closes the loop the paper draws between *modeled* and *measured*
parallel speedups: the very same per-cell warm kernel times that feed
:func:`repro.runtime.scheduler.simulate_makespan` are produced by a run
whose wall clock is recorded next to the model's prediction (the
artifact's ``execution`` block).

Design
------
The plan's cell list is expanded once, in canonical order
(:func:`repro.platform.suite.expand_cells`), and handed to a
:class:`concurrent.futures.ProcessPoolExecutor` by one bounded
dispatcher: at most ``plan.workers`` single-cell tasks are in flight, and
as one completes the next cell in canonical order is submitted.  That is
the greedy list schedule the ``dynamic`` makespan model simulates (the
OpenMP ``schedule(dynamic)`` loop GMS runs), and it is what lets a plan
clamped to fewer workers than the pool has really use only that many.

Every pool-task submission meters its pickled argument size into
``Counters.payload_bytes_shipped`` (parent-side; see
:mod:`repro.core.counters`).

Each worker process owns its graph + :class:`MaterializationCache`
(bounded by ``plan.cache_budget_bytes``) in module-global state that
persists across pool tasks, so single-cell tasks do not reload the
dataset per cell.  A session pool starts its workers with the session's
graphs and warm materializations already installed
(:func:`_seed_worker`).  Workers return finished cell payloads plus their
counter deltas; the parent re-assembles cells by index, merges the
per-worker :class:`~repro.core.counters.Snapshot` deltas (associative +
commutative, so completion order cannot change the totals) into its own
global block, and finalizes the reference cross-check exactly as the
sequential path does.  The resulting artifact is **cell-by-cell
identical to the sequential run up to timing fields** — pinned by the
determinism regression tests and by ``python -m repro suite-diff``.

Worker processes are forked where the platform allows it (Linux/macOS
CPython builds with ``fork``): the workers then inherit the session's
warm state, runtime-registered suite kernels and set backends, and
session graphs of any class, without pickling any of it.  Under
``spawn`` only import-time-registered kernels and backends are visible,
and the seed state must be picklable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import pickle
import sys
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from ..core import counters as _counters
from ..core.counters import Snapshot, merge_snapshots
from ..core.interface import SetBase
from ..graph import load_dataset  # noqa: F401 — worker-side import
from ..graph.set_graph import MaterializationCache
from . import suite as _suite

__all__ = [
    "run_plan_on_pool",
    "run_suite_parallel",
    "strip_timing",
    "diff_payloads",
    "diff_main",
]

#: Cell-level keys whose values are wall-clock measurements; everything
#: else in a cell is deterministic and must match across run modes.
TIMING_CELL_KEYS = ("seconds",)

#: Extras keys holding per-task wall-clock profiles.
TIMING_EXTRAS_KEYS = ("task_costs",)

#: Cell-level keys recording *which code served the cell* rather than what
#: it computed.  The ``--semantic`` suite-diff drops these too: a static
#: and an adaptive-dispatch run resolve different concrete classes by
#: design, and the identity gate is about the computed results (values,
#: counters, cross-check anchors) being bit-identical regardless.
PROVENANCE_CELL_KEYS = ("resolved_class",)


def _mp_context():
    """Prefer ``fork`` so runtime-registered kernels reach the workers."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


# ---------------------------------------------------------------------------
# Worker side.  _WORKER_STATE persists across pool tasks within one worker
# process: the graph and the bounded MaterializationCache are loaded once
# per (worker, dataset), however many single-cell tasks land there.
# A resident session pool may interleave datasets across queries, so the
# state is a small LRU rather than single-occupancy: up to
# _WORKER_DATASET_CAPACITY graphs stay warm per worker, and each dataset's
# SetGraph payload is independently bounded by the plan's cache budget.
# ---------------------------------------------------------------------------

#: Per-worker cap on simultaneously warm datasets (graph + cache pairs).
_WORKER_DATASET_CAPACITY = 4

_WORKER_STATE: "OrderedDict[str, Tuple[object, MaterializationCache]]" = (
    OrderedDict()
)
_WORKER_BACKENDS: Dict[tuple, Type[SetBase]] = {}
#: Datasets installed by :func:`_seed_worker`.  Pinned: they may be
#: session-local graphs a worker cannot reload by name, so the LRU never
#: evicts them.
_WORKER_PINNED: set = set()


def _seed_worker(warm: Dict[str, tuple], budget: Optional[int]) -> None:
    """Pool initializer: install the session's pre-warmed datasets.

    *warm* maps dataset names to ``(graph, cache_state)`` pairs, where
    ``cache_state`` is the parent cache's :meth:`~repro.graph.set_graph.
    MaterializationCache.export_graph_state` for that graph; *budget*
    bounds each worker-side cache.  Under the ``fork`` start method the worker
    inherits both from the parent's memory, so nothing is pickled.  The
    worker seeds its local :class:`MaterializationCache`, so the first
    task it serves finds the oriented ``SetGraph`` already materialized
    instead of rebuilding it.  Seeded *non-registry* datasets are pinned
    against LRU eviction: a custom session graph exists only in this
    seed, and evicting it would make every later task for it fail.
    Registry datasets stay evictable — a worker can always reload them
    by name — so the ``_WORKER_DATASET_CAPACITY`` bound keeps holding
    for them.
    """
    from ..graph import DATASETS

    for dataset, (graph, cache_state) in warm.items():
        cache = MaterializationCache(budget_bytes=budget)
        cache.seed_graph_state(graph, cache_state)
        _WORKER_STATE[dataset] = (graph, cache)
        if dataset not in DATASETS:
            _WORKER_PINNED.add(dataset)


def _worker_dataset(plan, dataset: str):
    state = _WORKER_STATE.get(dataset)
    if state is not None:
        _WORKER_STATE.move_to_end(dataset)
        return state
    # Make room *before* inserting, least-recently-used first: the
    # OrderedDict front is the LRU entry because every hit above calls
    # move_to_end.  The victim is recomputed per iteration (a snapshot
    # taken up front would go stale as entries are deleted) and pinned
    # entries are skipped, so after the insert the map holds at most
    # _WORKER_DATASET_CAPACITY entries unless pins alone exceed it.
    while len(_WORKER_STATE) >= _WORKER_DATASET_CAPACITY:
        victim = next(
            (name for name in _WORKER_STATE if name not in _WORKER_PINNED),
            None,
        )
        if victim is None:
            break
        del _WORKER_STATE[victim]
        for key in [k for k in _WORKER_BACKENDS if k[0] == victim]:
            del _WORKER_BACKENDS[key]
    graph = load_dataset(dataset)
    cache = MaterializationCache(
        budget_bytes=plan.cache_budget_bytes or None
    )
    state = (graph, cache)
    _WORKER_STATE[dataset] = state
    return state


def _worker_backend(plan, dataset: str, backend_name: str, graph):
    # The memo key carries the plan's budget knobs: a resident pool serves
    # queries whose budgets differ call to call, and a class resolved
    # under one budget must never leak into another.
    key = (dataset, backend_name) + plan.budget_key()
    cls = _WORKER_BACKENDS.get(key)
    if cls is None:
        cls = _suite.resolve_backend(plan, dataset, backend_name, graph)
        _WORKER_BACKENDS[key] = cls
    return cls


def _run_shard(
    plan, dataset: str, shard: Sequence[Tuple[int, Tuple[str, str, str]]]
) -> Dict[str, object]:
    """Pool task: run the indexed cell specs of one shard.

    Returns the finished cells (keyed by their canonical index), the
    worker's counter delta for the shard (kernel work *plus* the warm-up /
    materialization overhead — what the shard really cost this process),
    per-cell counter deltas (``cell_counters``, telescoping between cell
    boundaries, so their sum equals the shard delta exactly and the first
    cell absorbs any shared materialization cost — what lets a batched
    ``run_many`` shard still report per-variant counters), and the
    cache-stats *delta* attributable to this shard (monotone counters
    since the shard started; gauges instantaneous) so the parent can
    aggregate per-run materialization work even though the worker's
    cache — and, under a resident session pool, the worker itself —
    outlives any single run.
    """
    graph, cache = _worker_dataset(plan, dataset)
    stats_baseline = cache.stats()
    before = _counters.snapshot()
    boundary = before
    cells: List[Tuple[int, Dict[str, object]]] = []
    cell_deltas: List[Snapshot] = []
    for index, (backend_name, kernel_name, ordering) in shard:
        set_cls = _worker_backend(plan, dataset, backend_name, graph)
        cell = _suite.run_cell(
            graph, set_cls, _suite.SUITE_KERNELS[kernel_name],
            backend_name, ordering, plan, cache,
        )
        cells.append((index, cell))
        now = _counters.snapshot()
        cell_deltas.append(boundary.delta(now))
        boundary = now
    delta = before.delta(boundary)
    return {
        "pid": multiprocessing.current_process().pid,
        "cells": cells,
        "counters": delta,
        "cell_counters": cell_deltas,
        "cache_stats": cache.stats_since(stats_baseline),
        # The parent never loads the dataset itself; the dims it needs
        # for the artifact travel back with every shard.
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
    }


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def _submit_shard(
    pool: ProcessPoolExecutor, plan, dataset: str,
    shard: Sequence[Tuple[int, Tuple[str, str, str]]],
):
    """Submit one shard, metering its serialized payload as one task.

    Every pool task ships ``(plan, dataset, shard)`` by pickle; recording
    the bytes here (parent-side — worker deltas carry 0) is what makes
    payload-bytes-per-task a measured quantity in the session bench.
    """
    _counters.COUNTERS.record_payload(
        len(pickle.dumps((plan, dataset, shard)))
    )
    return pool.submit(_run_shard, plan, dataset, shard)


def _dispatch_cells(
    pool: ProcessPoolExecutor, plan, dataset: str,
    specs: List[Tuple[str, str, str]],
) -> Iterator[Dict[str, object]]:
    """Run *specs* as single-cell tasks; yield results as they complete.

    At most ``plan.workers`` tasks are in flight; each completion submits
    the next cell in canonical order.  Results stream back in completion
    order and the caller reassembles cells by canonical index, so the
    artifact does not depend on which worker finished first.
    """
    cells = iter(enumerate(specs))
    in_flight = {
        _submit_shard(pool, plan, dataset, [cell])
        for cell in itertools.islice(cells, plan.workers)
    }
    while in_flight:
        done, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
        for future in done:
            result = future.result()
            cell = next(cells, None)
            if cell is not None:
                in_flight.add(_submit_shard(pool, plan, dataset, [cell]))
            yield result


#: Cache-stat fields that are deltas per shard report (summed when a
#: worker reports several shards); the rest are instantaneous gauges
#: where the latest report per worker wins.
_DELTA_CACHE_FIELDS = MaterializationCache.MONOTONE_STATS


def accumulate_cache_stats(
    per_pid: Dict[int, Dict[str, object]], pid: int,
    report: Dict[str, object],
) -> None:
    """Fold one shard's cache-stats report into the per-PID accumulator."""
    acc = per_pid.get(pid)
    if acc is None:
        per_pid[pid] = dict(report)
        return
    for field in _DELTA_CACHE_FIELDS:
        acc[field] += report[field]
    for field in ("orderings", "set_graphs", "oriented", "resident_bytes"):
        acc[field] = report[field]


def _merge_cache_stats(
    per_pid: Dict[int, Dict[str, object]], budget_bytes: Optional[int],
) -> Dict[str, object]:
    """Sum the pool's accumulated per-process cache stats."""
    merged = {
        field: sum(stats[field] for stats in per_pid.values())
        for field in ("hits", "misses", "insertions", "evictions",
                      "orderings", "set_graphs", "oriented",
                      "resident_bytes")
    }
    merged["budget_bytes"] = budget_bytes
    merged["workers"] = len(per_pid)
    return merged


def run_plan_on_pool(
    pool: ProcessPoolExecutor, plan, dataset: str, verbose: bool = False,
    worker_stats: Optional[Dict[int, Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Execute *plan*'s cells for one dataset on an existing pool.

    This is the per-dataset body shared by :func:`run_suite_parallel`
    (which owns a pool for the duration of one plan) and
    :class:`~repro.platform.session.MiningSession` (whose *resident* pool
    outlives any single plan).  Worker counter deltas are folded back into
    this process's global block, so ``snapshot()`` around a parallel run
    still reports true totals.  *worker_stats*, when given, additionally
    receives the run's per-PID cache-stats reports (the session feeds its
    own accumulator here so ``session.stats()`` sees pool-served plans).
    """
    specs = _suite.expand_cells(plan)
    t0 = time.perf_counter()
    cells: List[Optional[Dict[str, object]]] = [None] * len(specs)
    worker_deltas: List[Snapshot] = []
    cache_stats_by_pid: Dict[int, Dict[str, object]] = {}
    num_nodes = num_edges = 0
    for result in _dispatch_cells(pool, plan, dataset, specs):
        num_nodes = result["num_nodes"]
        num_edges = result["num_edges"]
        worker_deltas.append(result["counters"])
        accumulate_cache_stats(
            cache_stats_by_pid, result["pid"], result["cache_stats"]
        )
        if worker_stats is not None:
            accumulate_cache_stats(
                worker_stats, result["pid"], result["cache_stats"]
            )
        for index, cell in result["cells"]:
            cells[index] = cell
            if verbose:
                print(
                    f"  {dataset} {cell['kernel']:<9} "
                    f"{cell['ordering']:<4} "
                    f"{cell['set_class']:<10} value={cell['value']} "
                    f"({1000 * cell['seconds']:.1f} ms, "
                    f"pid {result['pid']})"
                )
    measured = time.perf_counter() - t0
    _counters.COUNTERS.absorb(merge_snapshots(worker_deltas))
    return _suite.dataset_payload(
        plan, dataset, num_nodes, num_edges, cells,
        _merge_cache_stats(
            cache_stats_by_pid, plan.cache_budget_bytes or None
        ),
        measured, workers=plan.workers, schedule="dynamic",
    )


def run_suite_parallel(
    plan, verbose: bool = False, pool: Optional[ProcessPoolExecutor] = None
) -> List[Dict[str, object]]:
    """Execute *plan* on a ``plan.workers``-process pool; one payload per
    dataset, cell-for-cell identical to the sequential run up to timing.

    With no *pool* argument, a pool is created once and reused across the
    plan's datasets, so worker-side graph/cache state amortizes over the
    whole plan.  Passing an existing executor (a session's resident pool)
    skips pool creation entirely — worker state then amortizes across
    *plans*, not just datasets.
    """
    plan.validate()
    if pool is not None:
        return [
            run_plan_on_pool(pool, plan, dataset, verbose=verbose)
            for dataset in plan.datasets
        ]
    ctx = _mp_context()
    with ProcessPoolExecutor(max_workers=plan.workers, mp_context=ctx) as owned:
        return [
            run_plan_on_pool(owned, plan, dataset, verbose=verbose)
            for dataset in plan.datasets
        ]


# ---------------------------------------------------------------------------
# Determinism diffing: strip timing, compare everything else byte-for-byte.
# ---------------------------------------------------------------------------


def strip_timing(
    payload: Dict[str, object], *, semantic: bool = False
) -> Dict[str, object]:
    """The deterministic projection of a suite payload.

    Keeps the dataset identity, the cross-check anchor, and every cell
    field except wall-clock measurements (``seconds`` and the
    ``task_costs`` extras).  Execution mode, timing, the plan's execution
    knobs, and the materialization stats (which legitimately differ
    between one shared cache and per-worker caches) are dropped — two
    runs of the same sweep must agree on *this* projection exactly,
    whatever the schedule.  gms-suite/v1 payloads (no ``extras``, no
    ``counters`` block) project cleanly too, so suite-diff can diagnose a
    v1-vs-v2 pair instead of crashing on it.

    ``semantic=True`` additionally drops the provenance keys
    (``resolved_class``): the projection then states *what was computed*,
    not which concrete class computed it — the equivalence a
    ``--dispatch static`` vs ``--dispatch adaptive`` pair must satisfy.
    """
    dropped = TIMING_CELL_KEYS + (PROVENANCE_CELL_KEYS if semantic else ())
    cells = []
    for cell in payload["cells"]:
        kept = {
            k: v for k, v in cell.items() if k not in dropped
        }
        kept["extras"] = {
            k: v for k, v in cell.get("extras", {}).items()
            if k not in TIMING_EXTRAS_KEYS
        }
        cells.append(kept)
    return {
        "schema": payload["schema"],
        "dataset": payload["dataset"],
        "num_nodes": payload["num_nodes"],
        "num_edges": payload["num_edges"],
        "reference_backend": payload["reference_backend"],
        "counters": payload.get("counters"),
        "cells": cells,
    }


def diff_payloads(
    a: Dict[str, object], b: Dict[str, object], *, semantic: bool = False
) -> List[str]:
    """Human-readable differences between two payloads' deterministic
    projections; empty means byte-identical after timing stripping
    (and, with ``semantic=True``, after provenance stripping)."""
    sa = strip_timing(a, semantic=semantic)
    sb = strip_timing(b, semantic=semantic)
    if json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True):
        return []
    problems: List[str] = []
    for key in ("schema", "dataset", "num_nodes", "num_edges",
                "reference_backend", "counters"):
        if sa[key] != sb[key]:
            problems.append(f"{key}: {sa[key]!r} != {sb[key]!r}")
    ca, cb = sa["cells"], sb["cells"]
    if len(ca) != len(cb):
        problems.append(f"cell count: {len(ca)} != {len(cb)}")
    for i, (x, y) in enumerate(zip(ca, cb)):
        if x != y:
            diffs = [
                f"{f}={x.get(f)!r} vs {y.get(f)!r}"
                for f in sorted(set(x) | set(y)) if x.get(f) != y.get(f)
            ]
            problems.append(
                f"cell {i} ({x.get('kernel')}/{x.get('ordering')}/"
                f"{x.get('set_class')}): " + "; ".join(diffs)
            )
    return problems


def diff_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro suite-diff A.json B.json``.

    Exit 0 iff the two suite artifacts agree on every non-timing field —
    the check CI runs between the sequential and ``--workers 2`` smoke
    artifacts.
    """
    parser = argparse.ArgumentParser(
        prog="repro suite-diff",
        description="compare two suite artifacts up to timing fields",
    )
    parser.add_argument("artifact_a")
    parser.add_argument("artifact_b")
    parser.add_argument("--semantic", action="store_true",
                        help="also ignore which concrete set classes "
                             "served the cells (resolved_class) — the "
                             "static-vs-adaptive dispatch identity gate")
    ns = parser.parse_args(argv)
    with open(ns.artifact_a) as handle:
        a = json.load(handle)
    with open(ns.artifact_b) as handle:
        b = json.load(handle)
    problems = diff_payloads(a, b, semantic=ns.semantic)
    if problems:
        print(f"suite artifacts differ beyond timing "
              f"({len(problems)} problem(s)):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    exec_a = a.get("execution", {})
    exec_b = b.get("execution", {})
    print(
        f"suite artifacts agree up to timing: {len(a['cells'])} cells, "
        f"{exec_a.get('schedule', '?')}×{exec_a.get('workers', '?')} vs "
        f"{exec_b.get('schedule', '?')}×{exec_b.get('workers', '?')}"
    )
    return 0
