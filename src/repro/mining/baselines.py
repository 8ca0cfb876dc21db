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

from typing import Dict, FrozenSet, Optional, Set, Type

from ..core.interface import SetBase
from ..core.sorted_set import SortedSet
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from ..runtime.metrics import Span, timed_tasks
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
    with Span() as reorder:
        order_res, dag = cache.oriented(graph, cls, "DGR")

    def rec(i: int, candidates: SetBase) -> int:
        if i == k:
            return candidates.cardinality()
        total = 0
        for v in candidates.members():
            total += rec(i + 1, candidates.intersect(dag[v]))
        return total

    total, costs, mine_seconds = timed_tasks(
        [(rec(2, dag[u]) for u in dag.vertices())])
    return KCliqueResult(
        variant="GBBS", k=k, count=total, reorder_seconds=reorder.seconds,
        mine_seconds=mine_seconds, task_costs=costs,
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
    with Span() as reorder:
        order_res, dag = cache.oriented(graph, cls, "DGR")
    if k == 2:  # every arc is a 2-clique: no tasks
        with Span() as mine:
            total = sum(dag.out_degree(v) for v in dag.vertices())
        return KCliqueResult(
            variant="Danisch", k=k, count=total,
            reorder_seconds=reorder.seconds, mine_seconds=mine.seconds,
        )

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

    def arc_task(neigh_u: SetBase, v: int) -> int:
        if k == 3:
            return neigh_u.intersect_count(dag[v])
        c3 = neigh_u.intersect(dag[v])
        return 0 if c3.is_empty() else rec(3, c3)

    def groups():
        # One task per arc (u, v); u's members are listed outside them.
        for u in dag.vertices():
            neigh_u = dag[u]
            yield (arc_task(neigh_u, v) for v in neigh_u.members())

    total, costs, mine_seconds = timed_tasks(groups())
    return KCliqueResult(
        variant="Danisch", k=k, count=total, reorder_seconds=reorder.seconds,
        mine_seconds=mine_seconds, task_costs=costs,
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
    with Span() as mine:
        level: Set[FrozenSet[int]] = {
            frozenset((u, v)) for u, v in graph.edges()
        }
        size = 2
        while size < k and level:
            if len(level) > max_embeddings:
                raise MemoryError(
                    f"framework baseline exceeded {max_embeddings} "
                    f"embeddings"
                )
            nxt: Set[FrozenSet[int]] = set()
            for emb in level:
                # Expand by neighbors of any member; check the clique
                # predicate on the *whole* candidate each time (no
                # pattern-specific pruning — the framework treats the
                # pattern as a black box).
                for u in emb:
                    for w in graph.out_neigh(u).tolist():
                        if w in emb:
                            continue
                        if all(graph.has_edge(w, x) for x in emb):
                            nxt.add(emb | {w})
            level = nxt
            size += 1
    return KCliqueResult(
        variant="Framework", k=k, count=len(level), reorder_seconds=0.0,
        mine_seconds=mine.seconds,
    )
