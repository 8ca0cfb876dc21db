"""Cross-dataset artifact aggregation (``python -m repro aggregate``).

The suite (:mod:`repro.platform.suite`) persists one JSON artifact per
dataset under ``results/``.  This module folds every
``suite_<dataset>.json`` found there into one ``results/aggregate.json``
with per-backend speed-vs-accuracy summaries — the cross-dataset
operating picture a single-dataset artifact cannot show.  A sketched
backend's accuracy is its cells' ``rel_error`` against the ``sorted``
reference, as every backend's is.

Aggregate schema (``results/aggregate.json``)::

    {
      "schema": "gms-aggregate/v3",
      "sources": {"suite": [paths...]},
      "datasets": [names...],
      "backends": {
        "<set_class>": {
          "cells": int,            # suite cells folded in
          "exact": bool,           # every folded cell exact?
          "mean_rel_error": float, # accuracy across all folded counts
          "max_rel_error": float,
          "mean_seconds": float,   # raw speed across all folded cells
          "mean_speedup": float,   # vs the reference/exact twin, where known
          "per_kernel": {
            "<kernel>": {
              "cells": int, "mean_rel_error": float,
              "mean_seconds": float,
              # work-distribution stats from the per-cell extras
              # (gms-suite/v3 task profiles, or v2 task_costs lists;
              # absent for kernels that report none):
              "tasks": int,             # summed kClist/BK outer tasks
              "recursive_calls": int,   # summed BK recursion size
              "cost_imbalance": float,  # mean of per-cell max/mean
                                        # task-cost ratios (1.0 = flat)
            }, ...
          },
        }, ...
      },
      "parallel": [              # measured-vs-modeled speedups, one row
        {                        # per suite run with an execution block
          "dataset": str, "workers": int, "schedule": str,
          "measured_seconds": float, "cells_seconds_total": float,
          "measured_speedup": float,
          "modeled_speedup": float,    # scheduler model, same policy
          "model_accuracy": float,     # measured / modeled speedup
        }, ...
      ],
    }

Backends are keyed by the *plan-level* registry name (``"bloom"``,
``"kmv"``, ``"bitset"``, …).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from collections import defaultdict
from typing import Dict, List, Optional

from . import bench
from .bench import print_table, write_artifact
from .suite import task_profile

__all__ = ["AGGREGATE_SCHEMA", "aggregate_results", "main"]

#: Aggregate schema identifier, bumped on breaking layout changes.
#: v2 (over v1): per-kernel work-distribution stats folded from the
#: gms-suite cell extras, plus the "parallel" measured-vs-modeled table.
#: v3 (over v2): suite artifacts only; ``sources.budget_sweep`` is gone.
AGGREGATE_SCHEMA = "gms-aggregate/v3"


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class _BackendFold:
    """Accumulates one backend's cells across every artifact."""

    def __init__(self) -> None:
        self.rel_errors: List[float] = []
        self.seconds: List[float] = []
        self.speedups: List[float] = []
        self.exact = True
        self.per_kernel: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: {"rel_errors": [], "seconds": [], "tasks": [],
                     "recursive_calls": [], "imbalances": []}
        )

    def add(
        self,
        kernel: str,
        rel_error: float,
        seconds: float,
        exact: bool,
        speedup: Optional[float] = None,
        extras: Optional[Dict[str, object]] = None,
    ) -> None:
        self.rel_errors.append(rel_error)
        self.seconds.append(seconds)
        self.exact = self.exact and exact
        if speedup is not None:
            self.speedups.append(speedup)
        bucket = self.per_kernel[kernel]
        bucket["rel_errors"].append(rel_error)
        bucket["seconds"].append(seconds)
        # gms-suite/v3 task profiles; a v2 cell's task_costs list folds
        # through the same profile, and v1 artifacts simply carry none.
        extras = extras or {}
        if "recursive_calls" in extras:
            bucket["recursive_calls"].append(int(extras["recursive_calls"]))
        profile = (task_profile(extras["task_costs"])
                   if "task_costs" in extras else extras)
        tasks = profile.get("tasks", 0)
        if tasks:
            bucket["tasks"].append(tasks)
            seconds = profile["task_seconds"]
            mean_cost = seconds["sum"] / tasks
            if mean_cost > 0:
                bucket["imbalances"].append(seconds["max"] / mean_cost)

    def summary(self) -> Dict[str, object]:
        return {
            "cells": len(self.rel_errors),
            "exact": self.exact,
            "mean_rel_error": _mean(self.rel_errors),
            "max_rel_error": max(self.rel_errors, default=0.0),
            "mean_seconds": _mean(self.seconds),
            "mean_speedup": _mean(self.speedups),
            "per_kernel": {
                kernel: self._kernel_summary(bucket)
                for kernel, bucket in sorted(self.per_kernel.items())
            },
        }

    @staticmethod
    def _kernel_summary(bucket: Dict[str, List[float]]) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "cells": len(bucket["rel_errors"]),
            "mean_rel_error": _mean(bucket["rel_errors"]),
            "mean_seconds": _mean(bucket["seconds"]),
        }
        if bucket["tasks"]:
            summary["tasks"] = int(sum(bucket["tasks"]))
            summary["cost_imbalance"] = _mean(bucket["imbalances"])
        if bucket["recursive_calls"]:
            summary["recursive_calls"] = int(sum(bucket["recursive_calls"]))
        return summary


def _fold_suite(payload: Dict[str, object], folds: Dict[str, _BackendFold]) -> None:
    # Reference-backend seconds per (kernel, ordering) anchor the speedups.
    ref = payload.get("reference_backend", "sorted")
    ref_seconds = {
        (c["kernel"], c["ordering"]): c["seconds"]
        for c in payload["cells"]
        if c["set_class"] == ref
    }
    for cell in payload["cells"]:
        base = ref_seconds.get((cell["kernel"], cell["ordering"]))
        speedup = (
            base / cell["seconds"]
            if base is not None and cell["seconds"] > 0
            else None
        )
        folds[cell["set_class"]].add(
            cell["kernel"], cell["rel_error"], cell["seconds"],
            cell["exact"], speedup, cell.get("extras"),
        )


def _parallel_row(payload: Dict[str, object]) -> Optional[Dict[str, object]]:
    """One measured-vs-modeled row from a payload's execution block."""
    execution = payload.get("execution")
    if not execution:
        return None  # gms-suite/v1 artifact
    modeled = execution["modeled"].get(
        execution["schedule"], execution["modeled"].get("dynamic", {})
    )
    modeled_speedup = modeled.get("speedup", 0.0)
    measured_speedup = execution["measured_speedup"]
    return {
        "dataset": payload["dataset"],
        "workers": execution["workers"],
        "schedule": execution["schedule"],
        "measured_seconds": execution["measured_seconds"],
        "cells_seconds_total": execution["cells_seconds_total"],
        "measured_speedup": measured_speedup,
        "modeled_speedup": modeled_speedup,
        "model_accuracy": (
            measured_speedup / modeled_speedup if modeled_speedup else 0.0
        ),
    }


def aggregate_results(
    results_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Merge every suite artifact under *results_dir*.

    Returns the aggregate payload (see module docstring for the schema);
    raises :class:`FileNotFoundError` when no artifact is found — an empty
    aggregate would silently hide a miswired results directory.
    """
    # bench.ARTIFACT_DIR is read at call time (not import time) so test
    # harnesses that monkeypatch the shared artifact dir are honored here.
    base = results_dir or bench.ARTIFACT_DIR
    suite_paths = sorted(glob.glob(os.path.join(base, "suite_*.json")))
    if not suite_paths:
        raise FileNotFoundError(f"no suite_*.json artifacts under {base!r}")

    folds: Dict[str, _BackendFold] = defaultdict(_BackendFold)
    datasets = []
    parallel: List[Dict[str, object]] = []
    for path in suite_paths:
        with open(path) as handle:
            payload = json.load(handle)
        datasets.append(payload["dataset"])
        _fold_suite(payload, folds)
        row = _parallel_row(payload)
        if row is not None:
            parallel.append(row)

    return {
        "schema": AGGREGATE_SCHEMA,
        "sources": {"suite": [os.path.basename(p) for p in suite_paths]},
        "datasets": sorted(set(datasets)),
        "backends": {
            name: fold.summary() for name, fold in sorted(folds.items())
        },
        "parallel": parallel,
    }


def _print_aggregate(payload: Dict[str, object]) -> None:
    rows = [
        [
            name,
            summary["cells"],
            "yes" if summary["exact"] else "no",
            f"{100 * summary['mean_rel_error']:.2f}%",
            f"{100 * summary['max_rel_error']:.2f}%",
            f"{1000 * summary['mean_seconds']:.1f} ms",
            (f"{summary['mean_speedup']:.2f}x"
             if summary["mean_speedup"] else "-"),
        ]
        for name, summary in payload["backends"].items()
    ]
    print_table(
        f"Cross-dataset aggregate — {len(payload['datasets'])} dataset(s), "
        f"{len(payload['sources']['suite'])} suite artifact(s)",
        ["backend", "cells", "exact", "mean err", "max err", "mean time",
         "speedup"],
        rows,
    )
    parallel = payload.get("parallel") or []
    if parallel:
        print_table(
            "Measured vs modeled parallel speedup (runtime/scheduler.py)",
            ["dataset", "sched", "workers", "wall", "cells total",
             "measured", "modeled", "accuracy"],
            [
                [
                    row["dataset"],
                    row["schedule"],
                    row["workers"],
                    f"{1000 * row['measured_seconds']:.1f} ms",
                    f"{1000 * row['cells_seconds_total']:.1f} ms",
                    f"{row['measured_speedup']:.2f}x",
                    f"{row['modeled_speedup']:.2f}x",
                    f"{100 * row['model_accuracy']:.0f}%",
                ]
                for row in parallel
            ],
        )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro aggregate``."""
    parser = argparse.ArgumentParser(
        prog="repro aggregate",
        description="merge suite artifacts into results/aggregate.json",
        allow_abbrev=False,
    )
    parser.add_argument("--results-dir", default=None,
                        help="artifact directory (default: the shared "
                             "results/ dir, also via $REPRO_ARTIFACT_DIR)")
    ns = parser.parse_args(argv)
    try:
        payload = aggregate_results(ns.results_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}")
        return 2
    _print_aggregate(payload)
    if ns.results_dir:
        # Keep the aggregate next to the artifacts it merged.
        path = os.path.join(ns.results_dir, "aggregate.json")
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
    else:
        path = write_artifact("aggregate", payload)
    print(f"artifact: {path}")
    return 0
