"""Comparison-target baselines for Figures 9 and section 8.12.

The paper compares GMS's k-clique listing against:

* **GBBS** — the Graph Based Benchmark Suite's k-clique kernel: the same
  intersection-driven recursion but node-parallel over the degeneracy
  order (the exact variant GBBS supports, section 8.11);
* **Danisch et al.** — the original edge-parallel kClist, which rebuilds an
  *induced subgraph structure* (relabeled adjacency arrays of ``Δ²``-style
  scratch space) at every recursion level — the overhead the GMS
  reformulation removes (section 6.3);
* **pattern-matching frameworks** (Peregrine/RStream flavor) — generic
  exploration: grow vertex-set embeddings one neighbor at a time, checking
  the pattern predicate per candidate and deduplicating embeddings, which
  is 10–100× slower than the specialized algorithms (section 8.12).

These are *honest* re-implementations of each design's control structure,
so the relative ordering emerges from the real extra work each performs —
but all of them now speak the same :class:`~repro.core.interface.SetBase`
algebra over a materialized :class:`~repro.graph.set_graph.SetGraph`, so
the baselines, too, run under every registered set representation.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Set, Type

from ..core.interface import SetBase
from ..core.sorted_set import SortedSet
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from .kclique import KCliqueResult

__all__ = [
    "gbbs_kclique_count",
    "danisch_kclique_count",
    "framework_kclique_count",
]


def gbbs_kclique_count(
    graph: CSRGraph,
    k: int,
    set_cls: Optional[Type[SetBase]] = None,
    cache: Optional[MaterializationCache] = None,
) -> KCliqueResult:
    """GBBS-style k-clique: node-parallel, DGR order, intersections."""
    cls = set_cls or SortedSet
    if cache is None:
        cache = MaterializationCache()
    t0 = time.perf_counter()
    order_res, dag = cache.oriented(graph, cls, "DGR")
    reorder = time.perf_counter() - t0

    def rec(i: int, candidates: SetBase) -> int:
        if i == k:
            return candidates.cardinality()
        total = 0
        for v in candidates.members():
            total += rec(i + 1, candidates.intersect(dag[v]))
        return total

    total = 0
    costs: List[float] = []
    t1 = time.perf_counter()
    for u in dag.vertices():
        tv = time.perf_counter()
        total += rec(2, dag[u])
        costs.append(time.perf_counter() - tv)
    return KCliqueResult(
        variant="GBBS", k=k, count=total, reorder_seconds=reorder,
        mine_seconds=time.perf_counter() - t1, task_costs=costs,
    )


def danisch_kclique_count(
    graph: CSRGraph,
    k: int,
    set_cls: Optional[Type[SetBase]] = None,
    cache: Optional[MaterializationCache] = None,
) -> KCliqueResult:
    """Edge-parallel kClist with per-level induced-subgraph construction.

    At every recursion level the original allocates and fills a relabeled
    adjacency structure for the candidate subgraph before recursing — the
    work the GMS reformulation's direct set intersections avoid.
    """
    cls = set_cls or SortedSet
    if cache is None:
        cache = MaterializationCache()
    t0 = time.perf_counter()
    order_res, dag = cache.oriented(graph, cls, "DGR")
    reorder = time.perf_counter() - t0

    def build_local(candidates: SetBase) -> Dict[int, SetBase]:
        # The induced DAG on the candidates — rebuilt at every level.
        return {
            int(v): dag[int(v)].intersect(candidates)
            for v in candidates.members()
        }

    def rec(i: int, candidates: SetBase) -> int:
        if i == k:
            return candidates.cardinality()
        local = build_local(candidates)
        total = 0
        for v in candidates.members():
            total += rec(i + 1, local[v])
        return total

    total = 0
    costs: List[float] = []
    t1 = time.perf_counter()
    if k == 2:
        total = sum(dag.out_degree(v) for v in dag.vertices())
    for u in dag.vertices():
        if k == 2:
            break
        neigh_u = dag[u]
        for v in neigh_u.members():
            tv = time.perf_counter()
            if k == 3:
                total += neigh_u.intersect_count(dag[v])
            else:
                c3 = neigh_u.intersect(dag[v])
                if not c3.is_empty():
                    total += rec(3, c3)
            costs.append(time.perf_counter() - tv)
    return KCliqueResult(
        variant="Danisch", k=k, count=total, reorder_seconds=reorder,
        mine_seconds=time.perf_counter() - t1, task_costs=costs,
    )


def framework_kclique_count(
    graph: CSRGraph, k: int, max_embeddings: int = 2_000_000
) -> KCliqueResult:
    """Generic pattern-matching-framework exploration (Peregrine/RStream).

    Grows unordered vertex-set embeddings one adjacent vertex at a time,
    evaluates the clique predicate on each candidate extension, and
    deduplicates embeddings in a global set — the programming-model
    generality the paper identifies as the source of the 10–100×
    performance gap (section 8.12).
    """
    t1 = time.perf_counter()
    level: Set[FrozenSet[int]] = {
        frozenset((u, v)) for u, v in graph.edges()
    }
    size = 2
    while size < k and level:
        if len(level) > max_embeddings:
            raise MemoryError(
                f"framework baseline exceeded {max_embeddings} embeddings"
            )
        nxt: Set[FrozenSet[int]] = set()
        for emb in level:
            # Expand by neighbors of any member; check the clique predicate
            # on the *whole* candidate each time (no pattern-specific
            # pruning — the framework treats the pattern as a black box).
            for u in emb:
                for w in graph.out_neigh(u).tolist():
                    if w in emb:
                        continue
                    if all(graph.has_edge(w, x) for x in emb):
                        nxt.add(emb | {w})
        level = nxt
        size += 1
    count = len(level) if k > 2 else len(level)
    return KCliqueResult(
        variant="Framework", k=k, count=count, reorder_seconds=0.0,
        mine_seconds=time.perf_counter() - t1,
    )
