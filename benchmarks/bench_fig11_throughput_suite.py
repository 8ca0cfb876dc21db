"""Figure 11 (appendix): per-graph clique throughput for all BK variants.

The appendix figure plots maximal cliques mined per second for every
variant (including the TBB flavors) across the whole dataset suite.  We
reproduce the panel data and the headline observation of section 8.10:
the *relative* benefit of the GMS variants over BK-DAS is smaller on
graphs with a higher density of maximal cliques — which is exactly the
insight plain runtimes cannot expose.
"""

from __future__ import annotations

import pytest

from repro.graph import load_dataset, suite
from repro.mining import BK_VARIANTS, run_bk_variant
from repro.platform import simulated_parallel_seconds, write_artifact

THREADS = 16
GRAPHS = [
    "chebyshev4-mini", "gearbox-mini", "gupta3-mini", "ep-trust-mini",
    "fb-comm-mini", "sc-ht-mini", "mbeacxc-mini", "orani678-mini",
    "movierec-mini", "jester2-mini", "antcolony6-mini", "usa-roads-mini",
]


def run_fig11():
    rows = []
    for name in GRAPHS:
        graph = load_dataset(name)
        for variant in BK_VARIANTS:
            res = run_bk_variant(graph, variant)
            for policy, flavor in (("dynamic", "GMS"), ("stealing", "TBB")):
                if flavor == "TBB" and variant == "BK-DAS":
                    continue
                seconds = simulated_parallel_seconds(res, THREADS, policy)
                rows.append(
                    {
                        "graph": name,
                        "variant": variant if flavor == "GMS"
                        else variant.replace("GMS", "TBB"),
                        "cliques": res.num_cliques,
                        "clique_density": res.num_cliques / graph.num_nodes,
                        "throughput": res.num_cliques / seconds,
                    }
                )
    return rows


@pytest.mark.benchmark(group="fig11")
def test_fig11_throughput_suite(benchmark, show_table):
    rows = benchmark.pedantic(run_fig11, rounds=1, iterations=1)
    show_table(
        f"Figure 11 — maximal cliques per second, full suite ({THREADS} thr)",
        ["graph", "variant", "cliques", "cliques/s"],
        [
            [r["graph"], r["variant"], r["cliques"], f"{r['throughput']:,.0f}"]
            for r in rows
        ],
    )
    write_artifact("fig11_throughput_suite", rows)

    # Every variant counts the same maximal cliques on a graph: BK-DAS and
    # the H-subgraph variant run the per-step recursion, the others the
    # subtree instruction.
    for name in GRAPHS:
        counts = {r["variant"]: r["cliques"] for r in rows
                  if r["graph"] == name}
        assert len(set(counts.values())) == 1, (name, counts)
    # GMS variants lead BK-DAS on nearly every graph.
    wins = 0
    for name in GRAPHS:
        das = next(r["throughput"] for r in rows
                   if r["graph"] == name and r["variant"] == "BK-DAS")
        best = max(r["throughput"] for r in rows
                   if r["graph"] == name and r["variant"] != "BK-DAS")
        if best > das:
            wins += 1
    assert wins >= len(GRAPHS) - 1
