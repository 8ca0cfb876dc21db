"""Approximate counting kernels (ProbGraph workload; paper modularity ``5+``).

The kernels here are *representation-generic*: they call only the
:class:`~repro.core.interface.SetBase` surface, so passing one of the exact
registry classes reproduces the exact counts while passing a probabilistic
class (``"bloom"``/``"kmv"``) turns them into ProbGraph-style estimators.
Each driver also runs the exact raw-array baseline and reports
``(estimate, exact, relative error, speedup)`` so accuracy is always
measured, never assumed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Type

from ..core.bit_set import BitSet
from ..core.interface import SetBase
from ..core.sorted_set import SortedSet
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from .bronkerbosch import BKResult, bron_kerbosch
from .kclique import kclique_count
from .triangles import triangle_count_node_iterator

__all__ = [
    "ApproxCountResult",
    "SketchPivotBKResult",
    "kclique_count_sets",
    "approx_triangle_count",
    "approx_four_clique_count",
    "sketch_pivot_bron_kerbosch",
]


@dataclass
class ApproxCountResult:
    """Outcome of one approximate counting run, paired with its exact truth."""

    kernel: str
    set_class: str
    estimate: int
    exact: int
    estimate_seconds: float
    exact_seconds: float

    @property
    def relative_error(self) -> float:
        """``|estimate - exact| / max(exact, 1)``.

        The denominator floors at 1, so on a graph with no matches the
        value equals the raw over-count rather than dividing by zero.
        """
        return abs(self.estimate - self.exact) / max(self.exact, 1)

    @property
    def speedup(self) -> float:
        """Exact-baseline seconds over estimator seconds."""
        if self.estimate_seconds <= 0:
            return float("inf")
        return self.exact_seconds / self.estimate_seconds

    def row(self) -> List[str]:
        """One table row for the benchmark printers."""
        return [
            self.kernel,
            self.set_class,
            f"{self.estimate:,}",
            f"{self.exact:,}",
            f"{100 * self.relative_error:.2f}%",
            f"{self.speedup:.2f}x",
        ]


def kclique_count_sets(
    graph: CSRGraph, k: int, set_cls: Type[SetBase], ordering: str = "DGR",
    reconcile: bool = False,
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
    ``reconcile``, its exact twin) go through *cache*, so a suite run
    shares them across kernels and budgets.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if cache is None:
        cache = MaterializationCache()
    _, dag = cache.oriented(graph, set_cls, ordering)
    if reconcile:
        if k == 2:
            return sum(dag.out_degree(v) for v in dag.vertices())
        _, exact_dag = cache.oriented(graph, SortedSet, ordering)

        def rec_reconciled(i: int, cand: SetBase) -> int:
            # Exact candidate sets at every level; the estimator runs only
            # at the counting level, over a sketch built from the exact
            # members.
            total = 0
            if i + 1 == k:
                cand_sketch = set_cls.from_sorted_array(cand.to_array())
                for v in cand.to_array().tolist():
                    total += cand_sketch.intersect_count(dag[v])
                return total
            for v in cand.to_array().tolist():
                total += rec_reconciled(i + 1, cand.intersect(exact_dag[v]))
            return total

        return sum(
            rec_reconciled(2, exact_dag[u]) for u in exact_dag.vertices()
        )
    return sum(dag[u].clique_count(dag, k - 1) for u in dag.vertices())


def approx_triangle_count(
    graph: CSRGraph, set_cls: Type[SetBase],
    cache: Optional[MaterializationCache] = None,
) -> ApproxCountResult:
    """Triangle-count estimate via the *unmodified* node-iterator kernel.

    The exact baseline runs the *same* node-iterator scheme on the exact
    sorted-array representation, so the reported speedup isolates the set
    representation rather than comparing different counting algorithms.
    """
    t0 = time.perf_counter()
    estimate = triangle_count_node_iterator(graph, set_cls=set_cls, cache=cache)
    estimate_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    exact = triangle_count_node_iterator(graph, cache=cache)
    exact_seconds = time.perf_counter() - t0
    return ApproxCountResult(
        kernel="tc",
        set_class=set_cls.__name__,
        estimate=estimate,
        exact=exact,
        estimate_seconds=estimate_seconds,
        exact_seconds=exact_seconds,
    )


def approx_four_clique_count(
    graph: CSRGraph, set_cls: Type[SetBase], ordering: str = "DGR",
    reconcile: bool = False,
    cache: Optional[MaterializationCache] = None,
) -> ApproxCountResult:
    """4-clique-count estimate via the set-algebra kClist recursion.

    ``reconcile`` enables the per-level reconciliation of
    :func:`kclique_count_sets` (exact candidate sets, top-level-only
    estimates).
    """
    t0 = time.perf_counter()
    estimate = kclique_count_sets(graph, 4, set_cls, ordering,
                                  reconcile=reconcile, cache=cache)
    estimate_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    exact = kclique_count(graph, 4, ordering, cache=cache).count
    exact_seconds = time.perf_counter() - t0
    return ApproxCountResult(
        kernel="4clique" + ("+reconcile" if reconcile else ""),
        set_class=set_cls.__name__,
        estimate=estimate,
        exact=exact,
        estimate_seconds=estimate_seconds,
        exact_seconds=exact_seconds,
    )


@dataclass
class SketchPivotBKResult:
    """Sketch-pivot Bron–Kerbosch run paired with its exact twin.

    The two runs share ordering and set representation; only the pivot
    scan differs.  ``identical`` is the headline guarantee — the clique
    *output* must match exactly, with only the recursion shape (number of
    recursive calls) free to move.
    """

    pivot_class: str
    num_cliques: int
    exact_num_cliques: int
    identical: bool
    estimate_calls: int
    exact_calls: int
    estimate_seconds: float
    exact_seconds: float

    @property
    def speedup(self) -> float:
        """Exact-pivot seconds over sketch-pivot seconds."""
        if self.estimate_seconds <= 0:
            return float("inf")
        return self.exact_seconds / self.estimate_seconds

    @property
    def call_overhead(self) -> float:
        """Extra recursive calls caused by mis-ranked pivots (ratio)."""
        if self.exact_calls <= 0:
            return 0.0
        return self.estimate_calls / self.exact_calls


def sketch_pivot_bron_kerbosch(
    graph: CSRGraph,
    pivot_set_cls: Type[SetBase],
    ordering: str = "DGR",
    set_cls: Type[SetBase] = BitSet,
    collect: bool = True,
) -> SketchPivotBKResult:
    """Run sketch-pivot BK next to exact BK and verify the outputs match.

    With ``collect=True`` (the default) the canonical clique *sets* are
    compared; otherwise only the counts.  A ``False`` ``identical`` would
    indicate a bug — pivot choice cannot legally change BK-Pivot's output.
    """
    t0 = time.perf_counter()
    est: BKResult = bron_kerbosch(
        graph, ordering, set_cls, collect=collect, pivot_set_cls=pivot_set_cls
    )
    estimate_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    exact: BKResult = bron_kerbosch(graph, ordering, set_cls, collect=collect)
    exact_seconds = time.perf_counter() - t0
    if collect:
        identical = (
            sorted(tuple(sorted(c)) for c in est.cliques)
            == sorted(tuple(sorted(c)) for c in exact.cliques)
        )
    else:
        identical = est.num_cliques == exact.num_cliques
    return SketchPivotBKResult(
        pivot_class=pivot_set_cls.__name__,
        num_cliques=est.num_cliques,
        exact_num_cliques=exact.num_cliques,
        identical=identical,
        estimate_calls=est.recursive_calls,
        exact_calls=exact.recursive_calls,
        estimate_seconds=estimate_seconds,
        exact_seconds=exact_seconds,
    )
