"""Parallel subgraph isomorphism: the Figure 7 optimization ladder."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graph import build_undirected
from repro.isomorphism import SI_VARIANTS, run_si_variant, si_scaling_curve
from repro.isomorphism import parallel, vf3light


@pytest.fixture(scope="module")
def workload():
    T = nx.gnp_random_graph(40, 0.2, seed=7)
    target = build_undirected(40, list(T.edges()))
    target_labels = np.array([v % 2 for v in range(40)])
    queries = [
        build_undirected(3, [(0, 1), (1, 2), (0, 2)]),
        build_undirected(4, [(0, 1), (1, 2), (2, 3)]),
    ]
    query_labels = [np.array([0, 1, 0]), np.array([0, 1, 0, 1])]
    return target, queries, target_labels, query_labels


def test_all_variants_find_same_embeddings(workload):
    target, queries, tl, ql = workload
    counts = set()
    for variant in SI_VARIANTS:
        res = run_si_variant(
            target, queries, variant, target_labels=tl, query_labels=ql
        )
        counts.add(res.embeddings)
        assert res.embeddings > 0
    assert len(counts) == 1, f"variants disagree: {counts}"


def test_precompute_computes_domains_once_per_query(workload, monkeypatch):
    target, queries, tl, ql = workload
    calls = []
    real = vf3light._domains

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vf3light, "_domains", counted)
    monkeypatch.setattr(parallel, "_domains", counted, raising=False)
    results = {variant: run_si_variant(target, queries, variant,
                                       target_labels=tl, query_labels=ql)
               for variant in SI_VARIANTS}
    # One domain computation per query, not one per root task (80).
    assert len(calls) == len(queries)
    assert len({res.embeddings for res in results.values()}) == 1
    assert results["precompute"].setup_seconds > 0
    assert all(res.setup_seconds == 0 for variant, res in results.items()
               if variant != "precompute")


def test_scaling_curve_monotone_non_increasing(workload):
    target, queries, tl, ql = workload
    res = run_si_variant(target, queries, "precompute",
                         target_labels=tl, query_labels=ql)
    curve = si_scaling_curve(res, [1, 2, 4, 8, 16, 32])
    for a, b in zip(curve, curve[1:]):
        assert b <= a + 1e-12

    # Speedup saturates: 32 threads no more than 32x.
    assert curve[0] / curve[-1] <= 32.01


def test_fine_splitting_produces_more_tasks(workload):
    target, queries, tl, ql = workload
    coarse = run_si_variant(target, queries, "baseline",
                            target_labels=tl, query_labels=ql)
    fine = run_si_variant(target, queries, "splitting",
                          target_labels=tl, query_labels=ql)
    assert len(fine.task_costs) > len(coarse.task_costs)


def test_stealing_uses_dynamic_policy(workload):
    target, queries, tl, ql = workload
    assert run_si_variant(target, queries, "baseline",
                          target_labels=tl, query_labels=ql).policy == "static"
    assert run_si_variant(target, queries, "stealing",
                          target_labels=tl, query_labels=ql).policy == "dynamic"


def test_unknown_variant_rejected(workload):
    target, queries, tl, ql = workload
    with pytest.raises(ValueError, match="unknown SI variant"):
        run_si_variant(target, queries, "warp-drive")
