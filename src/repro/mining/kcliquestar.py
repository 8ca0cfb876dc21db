"""k-clique-star listing (paper section 6.6).

A *k-clique-star* is a k-clique together with the set of additional
vertices adjacent to **all** clique members (the "star").  The paper's
observation: each star vertex forms a (k+1)-clique with the k-clique, so
the search can reuse the k-clique machinery — mine k-cliques, then derive
each star with set intersections, membership, and difference, all through
the :class:`~repro.core.interface.SetBase` algebra over a materialized
:class:`~repro.graph.set_graph.SetGraph`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Type

from ..core.interface import SetBase
from ..core.sorted_set import SortedSet
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from .kclique import kclique_list

__all__ = ["kclique_stars", "kclique_star_count"]


def kclique_stars(
    graph: CSRGraph,
    k: int,
    min_star: int = 1,
    set_cls: Optional[Type[SetBase]] = None,
    cache: Optional[MaterializationCache] = None,
) -> List[Tuple[List[int], List[int]]]:
    """List ``(clique, star)`` pairs for all k-cliques with ``|star| ≥ min_star``.

    The star of a clique ``C`` is ``(∩_{v ∈ C} N(v)) \\ C`` — exactly the
    vertices completing ``C`` into a (k+1)-clique, per section 6.6.  The
    running intersection shrinks in place (one scratch set per clique), and
    the final ``\\ C`` is the ``diff_element`` overload of Listing 1.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    cls = set_cls or SortedSet
    if cache is None:
        cache = MaterializationCache()
    sets = cache.set_graph(graph, cls)
    results: List[Tuple[List[int], List[int]]] = []
    for clique in kclique_list(graph, k, set_cls=cls, cache=cache):
        star = cls.empty()
        star.intersect_assign(sets[clique[0]], sets[clique[1]])
        for v in clique[2:]:
            if star.is_empty():
                break
            star.intersect_inplace(sets[v])
        for v in clique:
            star.remove(v)
        if star.cardinality() >= min_star:
            results.append((clique, star.members()))
    return results


def kclique_star_count(
    graph: CSRGraph,
    k: int,
    min_star: int = 1,
    set_cls: Optional[Type[SetBase]] = None,
    cache: Optional[MaterializationCache] = None,
) -> int:
    """Number of k-clique-stars with at least *min_star* star vertices."""
    return len(kclique_stars(graph, k, min_star, set_cls=set_cls, cache=cache))
