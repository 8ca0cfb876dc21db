"""Approximate k-clique counting (ProbGraph workload; paper modularity ``5+``).

:func:`kclique_count_sets` is *representation-generic*: it calls only the
:class:`~repro.core.interface.SetBase` surface, so passing one of the exact
registry classes reproduces the exact count while passing a probabilistic
class (``"bloom"``/``"kmv"``) turns it into a ProbGraph-style estimator.
Its accuracy is measured where every kernel's is, in the suite: the
``kclique`` and ``4clique-rec`` cells of a sketched backend carry
``reference`` and ``rel_error`` against the ``sorted`` cell.
"""

from __future__ import annotations

from typing import Optional, Type

from ..core.interface import SetBase
from ..core.sorted_set import SortedSet
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from .kclique import _materialize

__all__ = ["kclique_count_sets"]


def kclique_count_sets(
    graph: CSRGraph, k: int, set_cls: Type[SetBase], ordering: str = "DGR",
    reconcile: bool = False, eps: float = 0.1,
    cache: Optional[MaterializationCache] = None,
) -> int:
    """k-clique counting written purely in set algebra (Listing 7 shape).

    The recursion is the kClist scheme of :mod:`repro.mining.kclique`,
    ``Σ_u N⁺(u).clique_count(dag, k - 1)`` over a ``set_cls`` DAG, so
    candidate sets are ``set_cls`` instances and the final-level
    ``intersect_count`` calls go through the representation's (possibly
    estimated) counting path — this is where ProbGraph gets its speedup.

    With ``reconcile=True`` the ProbGraph per-level reconciliation is
    applied: intermediate candidate sets are computed *exactly* — as
    :class:`~repro.core.sorted_set.SortedSet` candidates over an exact
    twin of the oriented DAG — and only the top (innermost counting) level
    goes through the sketch ``intersect_count`` estimator.  This stops the
    lean-budget error from compounding down the recursion — for Bloom
    filters each approximate ``intersect`` yields a *superset* candidate
    set, so with a lean budget the plain recursion systematically
    over-counts, while the reconciled one carries only a single level of
    estimator noise.

    Both oriented materializations (the ``set_cls`` DAG and, under
    ``reconcile``, its exact twin) go through *cache*, ordered as
    :func:`~repro.mining.kclique.kclique_count` orders them (``eps``
    applies under ADG), so a suite run shares them across kernels and
    budgets.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if cache is None:
        cache = MaterializationCache()
    _, dag = _materialize(graph, ordering, set_cls, eps, cache)
    if reconcile:
        if k == 2:
            return sum(dag.out_degree(v) for v in dag.vertices())
        _, exact_dag = _materialize(graph, ordering, SortedSet, eps, cache)

        def rec_reconciled(i: int, cand: SetBase) -> int:
            # Exact candidate sets at every level; the estimator runs only
            # at the counting level, over a sketch built from the exact
            # members.
            total = 0
            if i + 1 == k:
                cand_sketch = set_cls.from_sorted_array(cand.to_array())
                for v in cand.members():
                    total += cand_sketch.intersect_count(dag[v])
                return total
            for v in cand.members():
                total += rec_reconciled(i + 1, cand.intersect(exact_dag[v]))
            return total

        return sum(
            rec_reconciled(2, exact_dag[u]) for u in exact_dag.vertices()
        )
    return sum(dag[u].clique_count(dag, k - 1) for u in dag.vertices())
