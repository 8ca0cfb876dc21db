"""CLI-driven sketch-budget sweep (ProbGraph operating curve, via parse_args).

Unlike the other benches, this one consumes the shared GMS CLI surface
end-to-end: flags are parsed by :func:`repro.platform.cli.parse_args`, the
headline backend comes from ``cli.resolve_set_class_for_graph`` (so
``--bloom-bits`` / ``--kmv-k`` / ``--bloom-shared-bits`` apply verbatim),
and the rows land in ``results/budget_sweep_<dataset>.json`` — the artifact
the CI upload step publishes.

Run as a script (same flags as ``python -m repro budget-sweep``)::

    PYTHONPATH=src python benchmarks/bench_budget_sweep.py \
        --dataset sc-ht-mini --repeats 1

or through pytest for the asserted smoke version.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.platform import parse_args, run_budget_sweep
from repro.platform.bench import write_artifact
from repro.platform.budget_sweep import main as budget_sweep_main


@pytest.mark.benchmark(group="budget-sweep")
def test_budget_sweep_cli(benchmark, show_table):
    """The sweep through the CLI path, with the artifact shape asserted."""
    args = parse_args(["--dataset", "sc-ht-mini", "--set-class", "bloom",
                       "--bloom-bits", "6", "--repeats", "1"])
    payload = benchmark.pedantic(
        lambda: run_budget_sweep(args), rounds=1, iterations=1
    )
    path = write_artifact(f"budget_sweep_{args.dataset}", payload)
    assert os.path.exists(path)
    with open(path) as handle:
        on_disk = json.load(handle)
    assert on_disk["dataset"] == "sc-ht-mini"

    rows = payload["rows"]
    show_table(
        f"budget sweep — {payload['dataset']}",
        ["family", "budget", "tc err", "4c err", "4c err (rec.)", "bk ok"],
        [
            [r["family"], r["label"], f"{100 * r['tc_rel_error']:.2f}%",
             f"{100 * r['fc_rel_error']:.2f}%",
             f"{100 * r['fc_reconciled_rel_error']:.2f}%",
             r["bk_identical"]]
            for r in rows
        ],
    )

    # The headline row honors the CLI budget flags.
    headline = rows[0]
    assert headline["family"] == "headline"
    assert "_b6" in headline["set_class"]
    # The --bloom-bits flag extends the swept grid.
    assert any(r["label"] == "b=6" for r in rows if r["family"] == "bloom")
    # Sketch-pivot BK output is identical to exact BK on every row — the
    # estimated pivot argmax must never change the enumerated cliques.
    assert all(r["bk_identical"] for r in rows)
    # Exact headline backend ⇒ zero error everywhere (bloom b=6 is not
    # exact, so check the invariant on the per-family sweeps instead):
    # richest budget of each family stays within the ProbGraph 10% point.
    by_label = {(r["family"], r["label"]): r for r in rows}
    assert by_label[("bloom", "b=32")]["tc_rel_error"] <= 0.10
    assert by_label[("kmv", "K=128")]["tc_rel_error"] <= 0.10
    # Reconciliation never compounds error beyond the plain recursion by
    # more than estimator noise on the shared-budget (leanest) rows.
    for r in rows:
        if r["family"] == "bloom-shared":
            assert (r["fc_reconciled_rel_error"]
                    <= r["fc_rel_error"] + 0.05)
    # KMV rows carry the link-prediction effectiveness-loss comparison.
    kmv_rows = [r for r in rows if r["family"] == "kmv"]
    assert kmv_rows and all("linkpred_eff_loss" in r for r in kmv_rows)


if __name__ == "__main__":
    raise SystemExit(budget_sweep_main())
