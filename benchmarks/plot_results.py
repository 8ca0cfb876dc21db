"""Plot the unified result artifact (the cross-dataset aggregate).

Consumes ``results/aggregate.json`` (``gms-aggregate/v3``, produced by
``python -m repro aggregate``) and renders:

* per-backend speed vs accuracy (mean speedup over the reference vs mean
  relative error) — the paper's ProbGraph operating-curve view;
* measured vs modeled parallel speedup per dataset (the ``execution``
  blocks the suite artifacts carry).

Matplotlib is optional (the container may not ship it): with it, PNGs
land under ``results/plots/``; without it, the same figures degrade to
deterministic ASCII bar charts written as ``.txt`` next to where the
PNGs would be — so CI can always archive *something* and the script
never needs a new dependency.

Run::

    PYTHONPATH=src python benchmarks/plot_results.py [--results-dir results]
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

try:  # gated: never a hard dependency
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:  # pragma: no cover - environment dependent
    plt = None

BAR_WIDTH = 40


def _ascii_barchart(
    title: str, rows: Sequence[Tuple[str, float]], unit: str
) -> str:
    """One deterministic ASCII bar chart (the no-matplotlib fallback)."""
    lines = [title, "=" * len(title)]
    peak = max((value for _, value in rows), default=0.0)
    for label, value in rows:
        width = int(round(BAR_WIDTH * value / peak)) if peak > 0 else 0
        lines.append(f"{label:<28} {'#' * width:<{BAR_WIDTH}} "
                     f"{value:.4g} {unit}")
    return "\n".join(lines) + "\n"


def _emit(path_base: str, title: str,
          rows: Sequence[Tuple[str, float]], unit: str) -> str:
    """Render one bar figure as PNG (matplotlib) or TXT (fallback)."""
    if plt is not None:
        labels = [label for label, _ in rows]
        values = [value for _, value in rows]
        fig, ax = plt.subplots(figsize=(8, 0.5 * max(4, len(rows))))
        ax.barh(labels, values)
        ax.set_xlabel(unit)
        ax.set_title(title)
        ax.invert_yaxis()
        fig.tight_layout()
        path = path_base + ".png"
        fig.savefig(path, dpi=120)
        plt.close(fig)
        return path
    path = path_base + ".txt"
    with open(path, "w") as handle:
        handle.write(_ascii_barchart(title, rows, unit))
    return path


def _scatter_or_table(path_base: str, title: str,
                      points: Sequence[Tuple[str, float, float]],
                      xlabel: str, ylabel: str) -> str:
    """Speed-vs-accuracy scatter (or aligned table without matplotlib)."""
    if plt is not None:
        fig, ax = plt.subplots(figsize=(7, 5))
        for label, x, y in points:
            ax.scatter([x], [y])
            ax.annotate(label, (x, y), textcoords="offset points",
                        xytext=(4, 4), fontsize=8)
        ax.set_xlabel(xlabel)
        ax.set_ylabel(ylabel)
        ax.set_title(title)
        fig.tight_layout()
        path = path_base + ".png"
        fig.savefig(path, dpi=120)
        plt.close(fig)
        return path
    path = path_base + ".txt"
    with open(path, "w") as handle:
        handle.write(f"{title}\n{'=' * len(title)}\n")
        handle.write(f"{'backend':<28} {xlabel:>14} {ylabel:>14}\n")
        for label, x, y in points:
            handle.write(f"{label:<28} {x:>14.4g} {y:>14.4g}\n")
    return path


def plot_aggregate(payload: Dict, out_dir: str) -> List[str]:
    emitted: List[str] = []
    backends = payload.get("backends", {})
    points = [
        (name, summary["mean_speedup"], summary["mean_rel_error"])
        for name, summary in sorted(backends.items())
        if summary.get("cells")
    ]
    if points:
        emitted.append(_scatter_or_table(
            os.path.join(out_dir, "speed_vs_accuracy"),
            "Per-backend speed vs accuracy (aggregate)",
            points, "mean speedup vs reference", "mean relative error",
        ))
    parallel = payload.get("parallel", [])
    rows = []
    for entry in parallel:
        tag = f"{entry['dataset']} ({entry['schedule']}x{entry['workers']})"
        rows.append((tag + " measured", entry["measured_speedup"]))
        if entry.get("modeled_speedup"):
            rows.append((tag + " modeled", entry["modeled_speedup"]))
    if rows:
        emitted.append(_emit(
            os.path.join(out_dir, "parallel_speedup"),
            "Measured vs modeled parallel speedup",
            rows, "speedup (x)",
        ))
    return emitted


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="plot result artifacts")
    parser.add_argument("--results-dir", default="results")
    ns = parser.parse_args(argv)
    out_dir = os.path.join(ns.results_dir, "plots")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(ns.results_dir, "aggregate.json")
    emitted: List[str] = []
    if os.path.exists(path):
        with open(path) as handle:
            emitted = plot_aggregate(json.load(handle), out_dir)
    if not emitted:
        print("nothing to plot (run `python -m repro aggregate` first)")
        return 1
    backend = "matplotlib" if plt is not None else "ascii fallback"
    print(f"rendered {len(emitted)} figure(s) via {backend}:")
    for path in emitted:
        print(f"  {path}")
    return 0


# ---------------------------------------------------------------------------
# Pytest form: the renderers must work on synthetic payloads either way.
# ---------------------------------------------------------------------------


def test_plot_renderers(tmp_path):
    aggregate = {
        "backends": {
            "sorted": {"cells": 2, "mean_speedup": 1.0,
                       "mean_rel_error": 0.0},
            "bloom": {"cells": 2, "mean_speedup": 1.7,
                      "mean_rel_error": 0.02},
        },
        "parallel": [{
            "dataset": "alpha", "schedule": "static", "workers": 2,
            "measured_speedup": 1.6, "modeled_speedup": 1.9,
        }],
    }
    out = plot_aggregate(aggregate, str(tmp_path))
    assert len(out) == 2
    for path in out:
        assert os.path.exists(path)
        assert os.path.getsize(path) > 0


if __name__ == "__main__":
    raise SystemExit(main())
