"""The cell task, and the process-pool side of running it.

Every cell a :class:`~repro.platform.session.MiningSession` executes —
a query, one variant of a batch, one cell of a suite plan — is one
task, ``(plan, dataset, spec)``, with ``spec`` a ``(backend, kernel,
ordering)`` triple from :func:`repro.platform.suite.expand_cells`.
:func:`metered_cell` runs it against a graph and a
:class:`MaterializationCache` and returns one metered result: the cell,
the process's counter delta over it (builds included), and the cache's
stats delta.  The session runs that function in-process on its own
cache, or ships the task to its resident
:class:`concurrent.futures.ProcessPoolExecutor`, where :func:`_run_task`
runs it on the worker's graph and cache.

:func:`dispatch` is the one bounded dispatcher: at most *limit* tasks
are in flight, and as one completes the next task in canonical order is
submitted.  That is the greedy list schedule the ``dynamic`` makespan
model (:func:`repro.runtime.scheduler.simulate_makespan`) simulates —
the OpenMP ``schedule(dynamic)`` loop GMS runs.  Every submission meters its pickled arguments into
``Counters.payload_bytes_shipped`` (parent-side; see
:mod:`repro.core.counters`).

Each worker process owns its graphs and per-dataset caches (each task
bounds its dataset's cache by its own ``plan.cache_budget_bytes`` before
it runs) in module-global state that persists across tasks, so a worker
does not reload a dataset per cell.  A session pool starts its workers
with the session's graphs and warm materializations already installed
(:func:`_seed_worker`).  The parent re-assembles cells by index, folds
the workers' counter deltas (associative and commutative, so completion
order cannot change the totals) into its own global block, and finalizes
the reference cross-check exactly as an in-process run does.  A pool-run
artifact is therefore **cell-by-cell identical to the sequential run up
to timing fields** — pinned by the determinism regression tests and by
``python -m repro suite-diff``.

Worker processes are forked where the platform allows it (Linux/macOS
CPython builds with ``fork``): the workers then inherit the session's
warm state, runtime-registered suite kernels and set backends, and
session graphs of any class, without pickling any of it.  Under
``spawn`` only import-time-registered kernels and backends are visible,
and the seed state is pickled, without the entries whose set class does
not pickle by reference (:func:`_seed_state`).
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import os
import pickle
import sys
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from ..core import counters as _counters
from ..core.interface import SetBase
from ..graph import load_dataset  # noqa: F401 — worker-side import
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from . import suite as _suite

__all__ = [
    "metered_cell",
    "dispatch",
    "strip_timing",
    "diff_payloads",
    "diff_main",
]

#: One cell task: the plan, the dataset name, and the
#: ``(backend, kernel, ordering)`` spec.
Task = Tuple[_suite.ExperimentPlan, str, Tuple[str, str, str]]

#: Cell-level keys whose values are wall-clock measurements; everything
#: else in a cell is deterministic and must match across run modes.
TIMING_CELL_KEYS = ("seconds",)

#: Extras keys holding per-task wall-clock summaries.  The task count
#: next to them (``tasks``) is fixed by the graph and is compared.
TIMING_EXTRAS_KEYS = ("task_seconds",)


def _mp_context():
    """Prefer ``fork`` so runtime-registered kernels reach the workers."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def _picklable_by_reference(cls: type) -> bool:
    """True iff *cls* can be pickled as a module-attribute reference.

    Budget-derived sketch subclasses are created by class factories at run
    time and are not importable from their module.
    """
    module = sys.modules.get(getattr(cls, "__module__", ""), None)
    return getattr(module, getattr(cls, "__qualname__", ""), None) is cls


def _seed_state(state: Dict[str, Dict], context) -> Dict[str, Dict]:
    """An :meth:`~MaterializationCache.export_graph_state` payload as a
    pool of *context* can hand it to :func:`_seed_worker`.

    Under ``fork`` the initializer arguments are inherited, not pickled,
    and a worker that resolves a sketch budget gets the parent's own
    derived class (:func:`~repro.core.registry.derived_set_class`'s memo
    is inherited too), so every entry is kept, and hit.  Any other start
    method pickles the arguments, and a budget-derived class does not
    pickle by reference: its entries stay behind, and a worker builds
    them on its first miss.
    """
    if context.get_start_method() == "fork":
        return state
    graphs = {key: sg for key, sg in state["graphs"].items()
              if _picklable_by_reference(key[1])}
    return {"orderings": state["orderings"], "graphs": graphs}


def metered_cell(graph: CSRGraph, cache: MaterializationCache,
                 set_cls: Type[SetBase], plan, spec: Tuple[str, str, str],
                 since: Optional[Dict[str, object]] = None,
                 ) -> Dict[str, object]:
    """Run one cell and meter it: the result every cell task returns.

    ``counters`` is this process's counter delta over the cell, builds
    included (what the cell really cost here; the cell's own counters
    leave the builds out), and ``cache_stats`` the cache's
    :meth:`~MaterializationCache.stats_since` delta over it, from the
    *since* baseline when the caller changed the cache for this cell
    first (a pool task bounding it by the task's budget).  The graph
    dimensions travel with the result because the parent of a pool run
    need not hold the graph.  The cell runs through
    ``suite.run_cell`` looked up at call time, so a patch on it reaches
    every cell, in-process or in a forked worker.
    """
    backend_name, kernel_name, ordering = spec
    stats = cache.stats() if since is None else since
    before = _counters.snapshot()
    cell = _suite.run_cell(
        graph, set_cls, _suite.SUITE_KERNELS[kernel_name], backend_name,
        ordering, plan, cache,
    )
    return {
        "pid": os.getpid(),
        "cell": cell,
        "counters": before.delta(_counters.snapshot()),
        "cache_stats": cache.stats_since(stats),
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
    }


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


def _worker_dataset(dataset: str):
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
    state = (load_dataset(dataset), MaterializationCache())
    _WORKER_STATE[dataset] = state
    return state


def _run_task(plan, dataset: str,
              spec: Tuple[str, str, str]) -> Dict[str, object]:
    """Pool task: one cell on this worker's graph, cache and backend.

    The task's plan bounds the cache, whichever budget it was seeded or
    first loaded under.  The cache-stats baseline is taken first, so the
    entries that budget drops count as this cell's evictions.
    """
    graph, cache = _worker_dataset(dataset)
    since = cache.stats()
    cache.set_budget(plan.cache_budget_bytes or None)
    set_cls = _suite.resolve_backend(plan, spec[0], graph)
    return metered_cell(graph, cache, set_cls, plan, spec, since)


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


def dispatch(
    pool: ProcessPoolExecutor, tasks: Sequence[Task], limit: int,
) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Run *tasks* on *pool*; yield ``(index, result)`` as they complete.

    At most *limit* tasks are in flight; each completion submits the next
    task in canonical order.  Results stream back in completion order,
    each stamped (``done_at``) with the parent's ``perf_counter`` when it
    saw the task finish, and the caller reassembles them by index, so
    nothing it builds depends on which worker finished first.  Every
    submission records its pickled arguments as one shipped payload
    (parent-side; worker deltas carry 0), which is what makes
    payload-bytes-per-task a measured quantity in ``session.stats()``.
    """
    pending = iter(enumerate(tasks))
    in_flight: Dict[object, int] = {}

    def submit(index: int, task: Task) -> None:
        _counters.COUNTERS.record_payload(len(pickle.dumps(task)))
        in_flight[pool.submit(_run_task, *task)] = index

    for index, task in itertools.islice(pending, limit):
        submit(index, task)
    while in_flight:
        done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
        done_at = time.perf_counter()
        for future in done:
            index = in_flight.pop(future)
            result = future.result()
            result["done_at"] = done_at
            following = next(pending, None)
            if following is not None:
                submit(*following)
            yield index, result


#: Cache-stat fields that are deltas per task report (summed when a
#: process reports several tasks), and the instantaneous gauges, where
#: the latest report per process wins.
_DELTA_CACHE_FIELDS = MaterializationCache.MONOTONE_STATS
_GAUGE_CACHE_FIELDS = ("orderings", "set_graphs", "oriented",
                       "resident_bytes")


def accumulate_cache_stats(
    per_pid: Dict[int, Dict[str, object]], pid: int,
    report: Dict[str, object],
) -> None:
    """Fold one task's cache-stats report into the per-PID accumulator."""
    acc = per_pid.get(pid)
    if acc is None:
        per_pid[pid] = dict(report)
        return
    for field in _DELTA_CACHE_FIELDS:
        acc[field] += report[field]
    for field in _GAUGE_CACHE_FIELDS:
        acc[field] = report[field]


def _merge_cache_stats(
    per_pid: Dict[int, Dict[str, object]], budget_bytes: Optional[int],
) -> Dict[str, object]:
    """Sum the per-process cache stats of one run."""
    merged = {
        field: sum(stats[field] for stats in per_pid.values())
        for field in _DELTA_CACHE_FIELDS + _GAUGE_CACHE_FIELDS
    }
    merged["budget_bytes"] = budget_bytes
    merged["workers"] = len(per_pid)
    return merged


# ---------------------------------------------------------------------------
# Determinism diffing: strip timing, compare everything else byte-for-byte.
# ---------------------------------------------------------------------------


def strip_timing(payload: Dict[str, object]) -> Dict[str, object]:
    """The deterministic projection of a suite payload.

    Keeps the dataset identity, the cross-check anchor, and every cell
    field except wall-clock measurements (``seconds`` and the
    ``task_seconds`` extras; the ``tasks`` count stays).  Execution mode,
    timing, the plan's execution knobs, and the materialization stats
    (which legitimately differ between one shared cache and per-worker
    caches) are dropped — two runs of the same sweep must agree on
    *this* projection exactly, whatever the schedule.  Older payloads
    (v1: no ``extras``, no ``counters`` block) project cleanly too, so
    suite-diff can diagnose a mixed-schema pair instead of crashing on
    it.
    """
    cells = []
    for cell in payload["cells"]:
        kept = {
            k: v for k, v in cell.items() if k not in TIMING_CELL_KEYS
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


def diff_payloads(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Human-readable differences between two payloads' deterministic
    projections; empty means byte-identical after timing stripping."""
    sa = strip_timing(a)
    sb = strip_timing(b)
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
        allow_abbrev=False,
    )
    parser.add_argument("artifact_a")
    parser.add_argument("artifact_b")
    ns = parser.parse_args(argv)
    with open(ns.artifact_a) as handle:
        a = json.load(handle)
    with open(ns.artifact_b) as handle:
        b = json.load(handle)
    problems = diff_payloads(a, b)
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
