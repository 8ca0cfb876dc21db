"""Graph transformations used by the mining pipeline (paper Listings 6–7).

* :func:`orient_by_rank` — the ``dir(G)`` step of the k-clique algorithm
  (Listing 7): keep only arcs ``v → u`` with ``η(v) < η(u)``, turning the
  undirected graph into a DAG whose out-degrees are bounded by the
  (approximate) degeneracy when η is a degeneracy-style order.
* :func:`rank_split` — the same rule applied to both sides of every
  arc: Bron–Kerbosch's initial ``P``/``X`` split of section 6.2.
* :func:`permute` — relabel vertices by a permutation (pipeline stage 3):
  the preprocessing hook for all reordering schemes.
* :func:`induced_subgraph` — extract ``G[S]`` with compacted vertex IDs,
  used by the subgraph-caching BK optimization and by FSM.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .builder import build_undirected
from .csr import CSRGraph

__all__ = [
    "oriented_arcs",
    "orient_by_rank",
    "permute",
    "induced_subgraph",
    "rank_split",
]


def _precedes(rank: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``η(a) < η(b)`` elementwise, ties broken by vertex ID: the one
    orientation rule."""
    ra, rb = rank[a], rank[b]
    return (ra < rb) | ((ra == rb) & (a < b))


def _offsets(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def oriented_arcs(
    graph: CSRGraph, rank: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``dir(G)`` arc filter: ``(offsets, targets)`` of the oriented DAG.

    Keeps arcs ``v → u`` with ``η(v) < η(u)`` (ties broken by vertex ID so
    the output is always a proper DAG), vectorized over all arcs at once.
    The single source of the orientation rule — both the CSR-producing
    :func:`orient_by_rank` and the set-materializing
    :func:`repro.graph.set_graph.build_oriented_set_graph` build on it, so
    the two paths can never diverge.
    """
    if graph.directed:
        raise ValueError("arc orientation expects an undirected graph")
    rank = np.asarray(rank)
    n = graph.num_nodes
    sources = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    targets = graph.adjacency
    keep = _precedes(rank, sources, targets)
    # Arcs stay grouped by source (CSR order) and sorted by target.
    return (_offsets(np.bincount(sources[keep], minlength=n)),
            targets[keep])


def orient_by_rank(graph: CSRGraph, rank: np.ndarray) -> CSRGraph:
    """Return the DAG keeping arcs from lower to higher rank.

    ``rank`` maps vertex → position in the chosen order η; ties are broken
    by vertex ID so the output is always a proper DAG.
    """
    offsets, arcs_dst = oriented_arcs(graph, rank)
    return CSRGraph(offsets, arcs_dst, directed=True)


def rank_split(
    graph: CSRGraph, rank: np.ndarray, vertices: Optional[np.ndarray] = None
) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Split ``N(v)`` by rank for each listed vertex: ``(later, earlier)``.

    Section 6.2 gets Bron–Kerbosch's initial ``P = N(v) ∩ {v_{i+1}..v_n}``
    and ``X = N(v) ∩ {v_1..v_{i-1}}`` by *splitting* each neighborhood
    by rank.  ``later`` holds the arcs :func:`oriented_arcs` keeps and
    ``earlier`` the reversed ones, each an ``(offsets, targets)`` pair
    whose ``i``-th set belongs to ``vertices[i]`` (default: every vertex
    in rank order, ties by vertex ID), with targets sorted.  Only the
    listed vertices' arcs are read, so a caller can split a graph run by
    run of its order.
    """
    if graph.directed:
        raise ValueError("rank split expects an undirected graph")
    rank = np.asarray(rank)
    if vertices is None:
        vertices = np.argsort(rank, kind="stable")
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = graph.offsets[vertices]
    degrees = graph.offsets[vertices + 1] - starts
    listed = _offsets(degrees)
    # Each listed vertex's CSR slice, in the order of the list.
    arcs = np.repeat(starts - listed[:-1], degrees)
    arcs += np.arange(listed[-1], dtype=np.int64)
    targets = graph.adjacency[arcs]
    sources = np.repeat(vertices, degrees)
    sides = []
    for keep in (_precedes(rank, sources, targets),
                 _precedes(rank, targets, sources)):
        sides.append((_offsets(keep)[listed], targets[keep]))
    return sides[0], sides[1]


def permute(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Relabel vertices: new ID of vertex ``v`` is ``perm[v]``.

    The result stores sorted neighborhoods under the new IDs.  This is the
    relabeling step of the preprocessing stage (``3``): after permuting by
    a rank array, iterating vertices ``0..n-1`` visits them in rank order.
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = graph.num_nodes
    if len(perm) != n or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("perm must be a permutation of 0..n-1")
    sources = perm[np.repeat(np.arange(n, dtype=np.int64), graph.degrees())]
    targets = perm[graph.adjacency]
    counts = np.bincount(sources, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    order = np.lexsort((targets, sources))
    return CSRGraph(offsets, targets[order], directed=graph.directed)


def induced_subgraph(
    graph: CSRGraph, vertices: Sequence[int] | np.ndarray
) -> Tuple[CSRGraph, np.ndarray]:
    """Return ``(G[S], S_sorted)``: the induced subgraph and its vertex map.

    Vertex ``i`` of the subgraph corresponds to ``S_sorted[i]`` in the
    original graph.
    """
    verts = np.unique(np.asarray(vertices, dtype=np.int64))
    index = {int(v): i for i, v in enumerate(verts)}
    edges = []
    member = np.zeros(graph.num_nodes, dtype=bool)
    member[verts] = True
    for v in verts.tolist():
        neigh = graph.out_neigh(v)
        kept = neigh[member[neigh]]
        vi = index[v]
        for u in kept.tolist():
            ui = index[u]
            if graph.directed or vi < ui:
                edges.append((vi, ui))
    if graph.directed:
        from .builder import build_directed

        return build_directed(len(verts), edges), verts
    return build_undirected(len(verts), edges), verts
