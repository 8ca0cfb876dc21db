"""k-clique listing and counting (paper section 6.3, Listing 7).

The GMS reformulation of the Danisch et al. kClist algorithm: reorder the
vertices (DGR or ADG), orient the graph along the order (``dir(G)``), and
recursively shrink candidate sets ``C_i`` with out-neighborhood
intersections::

    count(i, C_i):
        if i == k: return |C_i|
        return Σ_{v ∈ C_i} count(i + 1, N⁺(v) ∩ C_i)

Variants:

* ``"node"`` — node-parallel: one task per vertex, starting from
  ``C_2 = N⁺(u)``.
* ``"edge"`` — edge-parallel: one task per arc, starting from
  ``C_3 = N⁺(u) ∩ N⁺(v)`` — lower depth, more memory (section 7.2).

The kernels are written purely against the
:class:`~repro.core.interface.SetBase` algebra over a materialized
:class:`~repro.graph.set_graph.SetGraph` (the ``5+`` modularity hook): the
oriented out-neighborhoods are sets of the chosen representation, and the
whole recursion below a task is one of two bulk set instructions.  A
node-parallel task is ``N⁺(u).clique_count(dag, k - 1)``; the
edge-parallel tasks of ``u`` are the yields of
``N⁺(u).clique_branch(dag, k - 2)``, one per arc.  Their innermost level
is one ``intersect_count_many`` per candidate set, so an approximate
backend (``"bloom"``/``"kmv"``) turns the same code into a ProbGraph-style
estimator without a separate code path, while ``bitset`` and ``hash`` run
the recursion on raw big ints or C-level sets.

The GMS memory optimization bounds the space of every ``C_{i+1}`` by
``|C_i|`` instead of the ``Δ²``-sized scratch buffers of the original
code: candidate sets only ever shrink, and each recursion level keeps one
live candidate set, which ``clique_branch`` refills for every sibling
(``intersect_assign``) instead of allocating one per visited candidate.
There is no special-case code path for ``k = 3``, matching the
"all variants for k ≥ 3" observation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Type

from ..core.interface import SetBase
from ..core.sorted_set import SortedSet
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache

__all__ = ["KCliqueResult", "kclique_count", "kclique_list"]


@dataclass
class KCliqueResult:
    """Outcome of one k-clique run."""

    variant: str
    k: int
    count: int
    reorder_seconds: float
    mine_seconds: float
    task_costs: List[float] = field(default_factory=list)
    ordering_rounds: int = 1

    @property
    def total_seconds(self) -> float:
        return self.reorder_seconds + self.mine_seconds

    def throughput(self) -> float:
        """k-cliques found per second (algorithmic-efficiency metric)."""
        return self.count / self.total_seconds if self.total_seconds > 0 else 0.0


def _materialize(
    graph: CSRGraph,
    ordering: str,
    set_cls: Type[SetBase],
    eps: float,
    cache: Optional[MaterializationCache],
):
    """Resolve ordering + oriented DAG through the materialization layer."""
    if cache is None:
        cache = MaterializationCache()
    kwargs = {"eps": eps} if ordering == "ADG" else {}
    return cache.oriented(graph, set_cls, ordering, **kwargs)


def kclique_count(
    graph: CSRGraph,
    k: int,
    ordering: str = "DGR",
    parallel: str = "edge",
    eps: float = 0.1,
    set_cls: Optional[Type[SetBase]] = None,
    cache: Optional[MaterializationCache] = None,
) -> KCliqueResult:
    """Count k-cliques with the chosen ordering and parallelization.

    ``k = 2`` degenerates to edge counting; ``k = 3`` is triangle counting
    (no special-cased code path).  ``set_cls`` selects the set
    representation (default :class:`~repro.core.sorted_set.SortedSet`, the
    CSR-like sorted-array layout); an approximate class yields a ProbGraph
    estimate.  ``cache`` (a :class:`~repro.graph.set_graph.SetGraph`
    materialization cache) lets suite runs share the oriented DAG across
    kernels and repeats.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if parallel not in ("node", "edge"):
        raise ValueError("parallel must be 'node' or 'edge'")
    cls = set_cls or SortedSet
    t0 = time.perf_counter()
    order_res, dag = _materialize(graph, ordering, cls, eps, cache)
    reorder_seconds = time.perf_counter() - t0

    total = 0
    task_costs: List[float] = []
    t1 = time.perf_counter()
    if parallel == "node" or k == 2:
        for u in dag.vertices():
            tv = time.perf_counter()
            total += dag[u].clique_count(dag, k - 1)
            task_costs.append(time.perf_counter() - tv)
    else:
        # One task per arc (u, v): the time until clique_branch yields
        # v's count, which it computes only when resumed.
        for u in dag.vertices():
            tv = time.perf_counter()
            for count in dag[u].clique_branch(dag, k - 2):
                total += count
                now = time.perf_counter()
                task_costs.append(now - tv)
                tv = now
    mine_seconds = time.perf_counter() - t1
    return KCliqueResult(
        variant=f"KC-{order_res.name}-{parallel}",
        k=k,
        count=total,
        reorder_seconds=reorder_seconds,
        mine_seconds=mine_seconds,
        task_costs=task_costs,
        ordering_rounds=order_res.rounds,
    )


def kclique_list(
    graph: CSRGraph,
    k: int,
    ordering: str = "DGR",
    set_cls: Optional[Type[SetBase]] = None,
    cache: Optional[MaterializationCache] = None,
) -> List[List[int]]:
    """List (not just count) all k-cliques, as sorted vertex lists."""
    if k < 2:
        raise ValueError("k must be >= 2")
    cls = set_cls or SortedSet
    _, dag = _materialize(graph, ordering, cls, 0.1, cache)
    out: List[List[int]] = []

    def rec(prefix: List[int], i: int, candidates: SetBase) -> None:
        if i == k:
            for v in candidates.members():
                out.append(sorted(prefix + [v]))
            return
        for v in candidates.members():
            rec(prefix + [v], i + 1, candidates.intersect(dag[v]))

    for u in dag.vertices():
        c2 = dag[u]
        if k == 2:
            for v in c2.members():
                out.append(sorted([u, v]))
        else:
            rec([u], 2, c2)
    return out
