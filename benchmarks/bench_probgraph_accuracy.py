"""ProbGraph operating curve (Besta et al. 2022, Fig. 6-style), as suite cells.

Triangle counting and 4-clique counting run *unmodified* over the set-class
registry; the probabilistic backends (Bloom filters, KMV sketches) are
swept over their storage budgets against the ``sorted`` exact reference on
the synthetic generators.  Every point is a suite cell:
``suite.run_cell`` per budget class and kernel over one
``MaterializationCache`` per graph, then ``suite.finalize_cells`` fills each
cell's ``reference`` and ``rel_error`` from the ``sorted`` cell, as in any
suite artifact.  Expected shape: relative error shrinks as the sketch
budget grows (more bits per element / larger signatures), with the richest
budgets inside 10% of the exact counts, while exact backends stay at
exactly 0% error.

sc-ht-mini also runs the reconciled 4-clique (``4clique-rec``) and BK,
whose sketched cells must keep BK's exact count (the estimates only pick
pivots; the call overhead is ``recursive_calls`` against the reference
cell), and its KMV points record the link-prediction effectiveness loss of
``"jaccard-kmv"`` against exact Jaccard.

Speed note: in this pure-Python reproduction the sketch ops and the numpy
merge intersections have comparable constant factors, so the "speed" axis
is reported as set-algebra *work* (the cells' ``memory_traffic`` counter)
next to wall time — the C++ platform realizes the work reduction as
wall-clock speedup.
"""

from __future__ import annotations

import pytest

from repro.approx import bloom_set_class, kmv_set_class, shared_bloom_set_class
from repro.core import SortedSet
from repro.graph import MaterializationCache, load_dataset
from repro.graph import generators as gen
from repro.learning import effectiveness_loss
from repro.platform import ExperimentPlan, write_artifact
from repro.platform.suite import SUITE_KERNELS, finalize_cells, run_cell

GRAPHS = {
    "power-law-cluster": lambda: gen.holme_kim(1000, 8, 0.5, seed=7),
    "kronecker": lambda: gen.kronecker(9, edge_factor=8, seed=3),
    "sc-ht-mini": lambda: load_dataset("sc-ht-mini"),
}

#: Kernels per graph.  sc-ht-mini, the CI dataset, adds the reconciled
#: 4-clique and BK.
KERNELS = {
    "power-law-cluster": ("tc", "kclique"),
    "kronecker": ("tc", "kclique"),
    "sc-ht-mini": ("tc", "kclique", "4clique-rec", "bk"),
}

#: What every cell runs under: 4-cliques, degeneracy order, one pass.
PLAN = ExperimentPlan(k=4, orderings=("DGR",), repeats=1)

#: Per-element Bloom budgets.  Their 2-4 hashes and 64/256-bit floors
#: are what make the budget bite on these small neighborhoods.
BLOOM = [
    ("bloom b=4", bloom_set_class(4, 2, min_bits=64)),
    ("bloom b=8", bloom_set_class(8, 3, min_bits=64)),
    ("bloom b=32", bloom_set_class(32, 4, min_bits=256)),
]
#: Shared Bloom budgets, in bits per vertex of the graph's total.
SHARED_BITS_PER_VERTEX = (8, 32, 128)
KMV = [(f"kmv K={k}", kmv_set_class(k)) for k in (8, 32, 128)]


def budget_classes(graph):
    """The curve's ``(label, set class)`` points on *graph*, ``sorted`` first.

    A small graph floors several shared totals to one filter size; each
    class is measured once, labelled by its filter size.
    """
    shared = {}
    for per_vertex in SHARED_BITS_PER_VERTEX:
        cls = shared_bloom_set_class(per_vertex * graph.num_nodes,
                                     graph.num_nodes)
        shared.setdefault(cls, f"bloom m={cls.SHARED_BITS}")
    return [("sorted", SortedSet), *BLOOM,
            *((label, cls) for cls, label in shared.items()), *KMV]


def run_probgraph_accuracy():
    """One payload per graph: its finalized cells and KMV link losses."""
    payloads = []
    for graph_name, make in GRAPHS.items():
        graph = make()
        cache = MaterializationCache()
        cells = []
        linkpred = {}
        for label, cls in budget_classes(graph):
            for name in KERNELS[graph_name]:
                kernel = SUITE_KERNELS[name]
                ordering = PLAN.orderings[0] if kernel.uses_ordering else "-"
                cells.append(run_cell(graph, cls, kernel, label, ordering,
                                      PLAN, cache))
            if graph_name == "sc-ht-mini" and label.startswith("kmv"):
                loss = effectiveness_loss(graph, kmv_cls=cls)
                linkpred[label] = {"eff_exact": loss.exact.effectiveness,
                                   "eff_kmv": loss.approx.effectiveness,
                                   "loss": loss.loss}
        payloads.append({
            "graph": graph_name,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "cells": finalize_cells(cells),
            "linkpred": linkpred,
        })
    return payloads


def _table(payload):
    """One row per budget point: estimate, error and work ratio per kernel."""
    by_point = {}
    for cell in payload["cells"]:
        by_point.setdefault(cell["set_class"], {})[cell["kernel"]] = cell
    baseline = by_point["sorted"]
    rows = []
    for label, cells in by_point.items():
        row = [label]
        for name, cell in cells.items():
            ref_work = baseline[name]["memory_traffic"]
            row += [f"{cell['value']:,}", f"{100 * cell['rel_error']:.2f}%",
                    f"{ref_work / max(cell['memory_traffic'], 1):.2f}x"]
        if "bk" in cells:
            calls = baseline["bk"]["extras"]["recursive_calls"]
            row.append(f"{cells['bk']['extras']['recursive_calls'] / calls:.2f}x")
        if payload["linkpred"]:
            loss = payload["linkpred"].get(label)
            row.append(f"{loss['loss']:+.3f}" if loss else "-")
        row.append(f"{1000 * sum(c['seconds'] for c in cells.values()):.0f} ms")
        rows.append(row)
    header = ["backend"]
    for name in baseline:
        header += [f"{name} est", f"{name} err", f"{name} work↓"]
    if "bk" in baseline:
        header.append("bk calls")
    if payload["linkpred"]:
        header.append("eff loss")
    return header + ["wall"], rows


@pytest.mark.benchmark(group="probgraph")
def test_probgraph_speed_vs_accuracy(benchmark, show_table):
    payloads = benchmark.pedantic(run_probgraph_accuracy, rounds=1,
                                  iterations=1)
    for payload in payloads:
        header, rows = _table(payload)
        show_table(f"ProbGraph operating curve — {payload['graph']} "
                   f"(n={payload['num_nodes']:,}, m={payload['num_edges']:,})",
                   header, rows)
    write_artifact("probgraph_accuracy", payloads)

    # Shape assertions.
    cells = {(p["graph"], c["set_class"], c["kernel"]): c
             for p in payloads for c in p["cells"]}
    for c in cells.values():
        if c["exact"]:
            assert c["rel_error"] == 0.0
        assert c["value"] > 0
    for graph_name in GRAPHS:
        def at(backend, kernel):
            return cells[(graph_name, backend, kernel)]

        # The richest budget of each family reproduces the exact counts to
        # within 10% (the ProbGraph operating point).
        assert at("bloom b=32", "tc")["rel_error"] <= 0.10
        assert at("kmv K=128", "tc")["rel_error"] <= 0.10
        assert at("bloom b=32", "kclique")["rel_error"] <= 0.10
        assert at("kmv K=128", "kclique")["rel_error"] <= 0.10
        # Accuracy improves (weakly) along each family's budget sweep.
        assert (at("bloom b=32", "tc")["rel_error"]
                <= at("bloom b=4", "tc")["rel_error"] + 0.02)
        assert (at("kmv K=128", "tc")["rel_error"]
                <= at("kmv K=8", "tc")["rel_error"] + 0.02)
        # The speed axis: lean sketches do a fraction of the exact
        # backend's set-algebra work on the intersection-heavy kernel.
        assert (at("bloom b=4", "tc")["memory_traffic"]
                < 0.5 * at("sorted", "tc")["memory_traffic"])

    (ht,) = [p for p in payloads if p["graph"] == "sc-ht-mini"]
    sketched = [c for c in ht["cells"] if not c["exact"]]
    # Sketch pivots never change BK's maximal cliques.
    assert all(c["rel_error"] == 0.0 for c in sketched if c["kernel"] == "bk")
    # Reconciliation never compounds error beyond the plain recursion by
    # more than estimator noise on the shared-budget (leanest) points.
    for c in sketched:
        if c["kernel"] == "4clique-rec" and c["set_class"].startswith("bloom m="):
            plain = cells[("sc-ht-mini", c["set_class"], "kclique")]
            assert c["rel_error"] <= plain["rel_error"] + 0.05
    # KMV points carry the link-prediction effectiveness-loss comparison.
    kmv_points = {c["set_class"] for c in sketched
                  if c["set_class"].startswith("kmv")}
    assert kmv_points and kmv_points == set(ht["linkpred"])
