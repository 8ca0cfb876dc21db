"""Triangle counting (paper Figure 2 example kernel; Table 8 rows).

Two classic schemes, both expressed with set algebra over a materialized
:class:`~repro.graph.set_graph.SetGraph`:

* **node iterator** — for every edge ``(v, w)``, add ``|N(v) ∩ N(w)|``;
  every triangle is counted once per corner, so divide by 3 at the end
  (exactly the ``tc`` example of Figure 2).
* **rank merge** (a.k.a. *forward*) — orient edges by a degree order and
  intersect *out*-neighborhoods, counting every triangle exactly once;
  the ``O(m^{3/2})`` scheme of Table 8.

Both take a pluggable set class (modularity hook ``5+``); the default is
the CSR-like :class:`~repro.core.sorted_set.SortedSet`.  Each scheme's
pass is one ``SetGraph.intersect_count_pairs`` instruction over its arcs
(a sum of ``intersect_count``s), so approximate backends (``"bloom"``/
``"kmv"``) estimate with the same kernel code.
"""

from __future__ import annotations

from typing import Optional, Type

import numpy as np

from ..core.interface import SetBase
from ..core.sorted_set import SortedSet
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache

__all__ = ["triangle_count_node_iterator", "triangle_count_rank_merge"]


def _arc_sources(offsets: np.ndarray) -> np.ndarray:
    """The source vertex of every arc of a CSR ``offsets`` array."""
    return np.repeat(np.arange(len(offsets) - 1, dtype=np.int64),
                     np.diff(offsets))


def triangle_count_node_iterator(
    graph: CSRGraph,
    set_cls: Optional[Type[SetBase]] = None,
    cache: Optional[MaterializationCache] = None,
) -> int:
    """Count triangles with the node-iterator scheme (Figure 2's ``tc``)."""
    cls = set_cls or SortedSet
    if cache is None:
        cache = MaterializationCache()
    sets = cache.set_graph(graph, cls)
    total = sets.intersect_count_pairs(_arc_sources(graph.offsets),
                                       graph.adjacency)
    # Each triangle {a, b, c} is found once per ordered corner pair: 6 times
    # over the symmetric adjacency, i.e. tc/3 with the paper's per-edge loop
    # over directed arcs being tc/6 here (we loop over both arc directions).
    return total // 6


def triangle_count_rank_merge(
    graph: CSRGraph,
    set_cls: Optional[Type[SetBase]] = None,
    cache: Optional[MaterializationCache] = None,
) -> int:
    """Count triangles with the rank-merge (forward) scheme."""
    cls = set_cls or SortedSet
    if cache is None:
        cache = MaterializationCache()
    _, dag = cache.oriented(graph, cls, "DEG")
    offsets, targets = dag.arcs
    return dag.intersect_count_pairs(_arc_sources(offsets), targets)
