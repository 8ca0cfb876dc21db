"""Figure 1: algorithmic throughput of the BK variants, OpenMP vs TBB.

Reproduces the headline figure: maximal cliques mined per second for
BK-DAS vs the GMS variants on one structural, one communication, one
biological, and one economics network, under both scheduler flavors
(OpenMP ≈ dynamic chunks, TBB ≈ randomized stealing with higher per-task
overhead).  Expected shape: GMS variants above BK-DAS on most graphs, and
the OpenMP flavor at or above TBB (section 8.2).
"""

from __future__ import annotations

import pytest

from repro.graph import load_dataset, suite
from repro.mining import BK_VARIANTS, run_bk_variant
from repro.platform import simulated_parallel_seconds, write_artifact

THREADS = 16


def run_fig1():
    rows = []
    for name in suite("quick"):
        graph = load_dataset(name)
        for variant in BK_VARIANTS:
            res = run_bk_variant(graph, variant)
            for policy, flavor in (("dynamic", "OpenMP"), ("stealing", "TBB")):
                seconds = simulated_parallel_seconds(res, THREADS, policy)
                rows.append(
                    {
                        "graph": name,
                        "variant": variant,
                        "flavor": flavor,
                        "cliques": res.num_cliques,
                        "seconds": seconds,
                        "throughput": res.num_cliques / seconds,
                    }
                )
    return rows


@pytest.mark.benchmark(group="fig1")
def test_fig1_algorithmic_throughput(benchmark, show_table):
    rows = benchmark.pedantic(run_fig1, rounds=1, iterations=1)
    table = [
        [r["graph"], r["variant"], r["flavor"], r["cliques"],
         f"{r['throughput']:,.0f}"]
        for r in rows
    ]
    show_table(
        f"Figure 1 — maximal cliques per second ({THREADS} simulated threads)",
        ["graph", "variant", "threading", "cliques", "cliques/s"],
        table,
    )
    write_artifact("fig1_throughput", rows)

    # Every variant counts the same maximal cliques on a graph: BK-DAS and
    # the H-subgraph variant run the per-step recursion, the others the
    # subtree instruction.
    openmp = [r for r in rows if r["flavor"] == "OpenMP"]
    graphs = {r["graph"] for r in openmp}
    for g in graphs:
        counts = {r["variant"]: r["cliques"] for r in rows if r["graph"] == g}
        assert len(set(counts.values())) == 1, (g, counts)
    # Shape assertions: on most graphs the best GMS variant beats BK-DAS,
    # and OpenMP >= TBB for the same variant.
    gms_wins = 0
    for g in graphs:
        das = next(r for r in openmp if r["graph"] == g and r["variant"] == "BK-DAS")
        best_gms = max(
            r["throughput"]
            for r in openmp
            if r["graph"] == g and r["variant"] != "BK-DAS"
        )
        if best_gms > das["throughput"]:
            gms_wins += 1
    assert gms_wins >= len(graphs) - 1, "GMS variants should lead on most graphs"
    for r_open in openmp:
        r_tbb = next(
            r for r in rows
            if r["flavor"] == "TBB"
            and r["graph"] == r_open["graph"]
            and r["variant"] == r_open["variant"]
        )
        assert r_open["throughput"] >= r_tbb["throughput"] * 0.99
