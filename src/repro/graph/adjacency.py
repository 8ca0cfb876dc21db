"""Alternative graph models: AL, AM, EL (paper Appendix B, Tables 8–9).

The paper's appendix compares the time complexity of graph queries and
algorithms across four storage models — sorted Adjacency List (AL),
Adjacency Matrix (AM), and unsorted/sorted Edge List (EL).  These classes
implement the shared *query* interface used by the Table 8/9 benchmarks:

* ``iter_vertices()`` / ``iter_edges()``
* ``neighbors(v)`` / ``degree(v)``
* ``has_edge(u, v)``

with the asymptotics of Table 9 (e.g. ``has_edge`` is O(log Δ) on sorted AL,
O(1) on AM, O(m) on unsorted EL, O(log m) on sorted EL).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from .csr import CSRGraph

__all__ = [
    "AdjacencyListGraph",
    "AdjacencyMatrixGraph",
    "EdgeListGraph",
    "GRAPH_MODELS",
    "build_model",
]


class AdjacencyListGraph:
    """Sorted adjacency list: per-vertex sorted neighbor arrays."""

    kind = "AL"

    def __init__(self, csr: CSRGraph):
        self._neigh: List[np.ndarray] = [
            csr.out_neigh(v).copy() for v in csr.vertices()
        ]
        self.num_nodes = csr.num_nodes
        self.num_edges = csr.num_edges

    def iter_vertices(self) -> range:
        return range(self.num_nodes)

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        for u in range(self.num_nodes):
            for v in self._neigh[u].tolist():
                if u < v:
                    yield u, v

    def neighbors(self, v: int) -> np.ndarray:
        return self._neigh[v]

    def degree(self, v: int) -> int:
        return len(self._neigh[v])

    def has_edge(self, u: int, v: int) -> bool:
        arr = self._neigh[u]
        idx = int(np.searchsorted(arr, v))  # O(log Δ)
        return idx < len(arr) and arr[idx] == v

    def storage_bytes(self) -> int:
        return sum(a.nbytes for a in self._neigh)


class AdjacencyMatrixGraph:
    """Dense n×n boolean adjacency matrix."""

    kind = "AM"

    def __init__(self, csr: CSRGraph):
        n = csr.num_nodes
        self._matrix = np.zeros((n, n), dtype=bool)
        for u in csr.vertices():
            self._matrix[u, csr.out_neigh(u)] = True
        self.num_nodes = n
        self.num_edges = csr.num_edges

    def iter_vertices(self) -> range:
        return range(self.num_nodes)

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        # Θ(n²): every cell must be inspected.
        rows, cols = np.nonzero(np.triu(self._matrix, k=1))
        yield from zip(rows.tolist(), cols.tolist())

    def neighbors(self, v: int) -> np.ndarray:
        return np.nonzero(self._matrix[v])[0]  # Θ(n)

    def degree(self, v: int) -> int:
        return int(self._matrix[v].sum())  # Θ(n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._matrix[u, v])  # O(1)

    def storage_bytes(self) -> int:
        return self._matrix.nbytes


class EdgeListGraph:
    """Flat list of arcs; optionally sorted lexicographically.

    Each undirected edge is stored in both directions so that neighborhood
    queries on the sorted variant can binary-search a contiguous range
    (the ``#`` footnote of Table 9).
    """

    def __init__(self, csr: CSRGraph, *, sorted_list: bool):
        n = csr.num_nodes
        sources = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())
        arcs = np.stack([sources, csr.adjacency], axis=1)
        if sorted_list:
            order = np.lexsort((arcs[:, 1], arcs[:, 0]))
            arcs = arcs[order]
        else:
            rng = np.random.default_rng(0xE1)
            arcs = arcs[rng.permutation(len(arcs))]
        self._arcs = arcs
        self._sorted = sorted_list
        self.kind = "EL-sorted" if sorted_list else "EL-unsorted"
        self.num_nodes = n
        self.num_edges = csr.num_edges

    def iter_vertices(self) -> range:
        return range(self.num_nodes)

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        arcs = self._arcs
        mask = arcs[:, 0] < arcs[:, 1]
        yield from map(tuple, arcs[mask].tolist())

    def _range_of(self, v: int) -> Tuple[int, int]:
        lo = int(np.searchsorted(self._arcs[:, 0], v, side="left"))
        hi = int(np.searchsorted(self._arcs[:, 0], v, side="right"))
        return lo, hi

    def neighbors(self, v: int) -> np.ndarray:
        if self._sorted:
            lo, hi = self._range_of(v)  # O(log m + Δ)
            return self._arcs[lo:hi, 1]
        return self._arcs[self._arcs[:, 0] == v, 1]  # Θ(m)

    def degree(self, v: int) -> int:
        if self._sorted:
            lo, hi = self._range_of(v)
            return hi - lo
        return int((self._arcs[:, 0] == v).sum())

    def has_edge(self, u: int, v: int) -> bool:
        if self._sorted:
            lo, hi = self._range_of(u)  # O(log m)
            seg = self._arcs[lo:hi, 1]
            idx = int(np.searchsorted(seg, v))
            return idx < len(seg) and seg[idx] == v
        return bool(np.any((self._arcs[:, 0] == u) & (self._arcs[:, 1] == v)))

    def storage_bytes(self) -> int:
        return self._arcs.nbytes


GRAPH_MODELS = {
    "AL": lambda csr: AdjacencyListGraph(csr),
    "AM": lambda csr: AdjacencyMatrixGraph(csr),
    "EL-sorted": lambda csr: EdgeListGraph(csr, sorted_list=True),
    "EL-unsorted": lambda csr: EdgeListGraph(csr, sorted_list=False),
}


def build_model(csr: CSRGraph, kind: str):
    """Build one of the Table 8/9 graph models from a CSR graph."""
    try:
        return GRAPH_MODELS[kind](csr)
    except KeyError:
        raise KeyError(
            f"unknown model {kind!r}; known: {', '.join(GRAPH_MODELS)}"
        ) from None
