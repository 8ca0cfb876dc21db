"""Jarvis–Patrick clustering (paper section 4.1.2, appendix A).

JP clustering is the paper's example of *overlapping, single-level*
clustering driven by vertex similarity: two vertices belong to the same
cluster when they are in each other's k-nearest-neighbor lists and share at
least ``k_min`` of their k nearest neighbors.  Each k-NN list is a
:class:`~repro.core.sorted_set.SortedSet`, so the mutual-membership test
is ``contains`` and the shared-neighbor test one ``intersect_count`` —
the set-algebra building block again.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.sorted_set import SortedSet
from ..graph.csr import CSRGraph
from .similarity import SIMILARITY_MEASURES, similarity

__all__ = ["jarvis_patrick"]


def _knn_lists(
    graph: CSRGraph, k: int, measure: str
) -> List[SortedSet]:
    """k most similar neighbors of each vertex (graph neighbors only)."""
    knn: List[SortedSet] = []
    for u in graph.vertices():
        neigh = graph.out_neigh(u).tolist()
        scored = sorted(
            ((similarity(graph, u, v, measure), v) for v in neigh),
            key=lambda t: (-t[0], t[1]),
        )
        knn.append(SortedSet.from_sorted_array(
            np.asarray(sorted(v for _, v in scored[:k]), dtype=np.int64)
        ))
    return knn


def jarvis_patrick(
    graph: CSRGraph, k: int = 6, k_min: int = 2, measure: str = "jaccard"
) -> np.ndarray:
    """Cluster with Jarvis–Patrick; returns a cluster-id array.

    Vertices u, v join the same cluster when (1) each appears in the
    other's k-NN list and (2) ``|kNN(u) ∩ kNN(v)| ≥ k_min``.  Clusters are
    the connected components of the resulting "SNN" graph.
    """
    if measure not in SIMILARITY_MEASURES:
        known = ", ".join(sorted(SIMILARITY_MEASURES))
        raise KeyError(f"unknown measure {measure!r}; known: {known}")
    n = graph.num_nodes
    knn = _knn_lists(graph, k, measure)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for u in range(n):
        ku = knn[u]
        for v in ku.members():
            if u < v and knn[v].contains(u) and (
                    ku.intersect_count(knn[v]) >= k_min):
                union(u, v)
    roots = np.asarray([find(v) for v in range(n)], dtype=np.int64)
    # Compact cluster IDs.
    _, compact = np.unique(roots, return_inverse=True)
    return compact.astype(np.int64)
