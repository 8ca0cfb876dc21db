"""Property-based tests over randomly generated graphs (hypothesis)."""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import LogGraph
from repro.core import BitSet, SortedSet, get_set_class
from repro.core.counters import snapshot
from repro.graph import (
    MaterializationCache,
    build_undirected,
    orient_by_rank,
    permute,
    total_triangles,
)
from repro.mining import (
    bron_kerbosch,
    danisch_kclique_count,
    gbbs_kclique_count,
    kclique_count,
    kclique_count_sets,
    kclique_star_count,
    triangle_count_node_iterator,
    triangle_count_rank_merge,
)
from repro.preprocess import degeneracy_order
from tests.conftest import EXACT_SET_CLASSES

N = 20
edge_lists = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), max_size=60
)


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists)
def test_builder_invariants(edges):
    g = build_undirected(N, edges)
    # Neighborhoods are sorted and duplicate-free.
    for v in range(N):
        neigh = g.out_neigh(v)
        assert np.all(np.diff(neigh) > 0)
        assert v not in neigh.tolist()  # no self-loops survive
    # Symmetry: (u, v) stored iff (v, u) stored.
    for u in range(N):
        for v in g.out_neigh(u).tolist():
            assert g.has_edge(v, u)
    # Handshake lemma.
    assert g.degrees().sum() == 2 * g.num_edges


@settings(max_examples=30, deadline=None)
@given(edges=edge_lists, seed=st.integers(0, 2**31 - 1))
def test_permutation_preserves_mining_results(edges, seed):
    g = build_undirected(N, edges)
    perm = np.random.default_rng(seed).permutation(N)
    g2 = permute(g, perm)
    assert total_triangles(g2) == total_triangles(g)
    assert degeneracy_order(g2)[1] == degeneracy_order(g)[1]


@settings(max_examples=30, deadline=None)
@given(edges=edge_lists, seed=st.integers(0, 2**31 - 1))
def test_orientation_partitions_edges(edges, seed):
    g = build_undirected(N, edges)
    rank = np.random.default_rng(seed).permutation(N)
    dag = orient_by_rank(g, rank)
    assert dag.num_edges == g.num_edges
    # No arc and its reverse both present.
    for u in range(N):
        for v in dag.out_neigh(u).tolist():
            assert not dag.has_edge(v, u)


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists)
def test_loggraph_roundtrip_arbitrary(edges):
    g = build_undirected(N, edges)
    for encoding in ("bitpack", "varint-gap"):
        assert LogGraph(g, encoding).to_csr() == g


def _networkx_twin(g):
    G = nx.Graph(list(g.edges()))
    G.add_nodes_from(range(N))
    return G


# Differential oracles: every kernel that issues the bulk
# intersect_count_many instruction, on every exact backend, against
# networkx.  (The set_cls fixture cannot combine with @given.)
exact_backends = pytest.mark.parametrize(
    "cls", EXACT_SET_CLASSES, ids=lambda c: c.__name__)


@exact_backends
@settings(max_examples=30, deadline=None)
@given(edges=edge_lists)
def test_triangle_schemes_match_networkx(cls, edges):
    g = build_undirected(N, edges)
    expect = sum(nx.triangles(_networkx_twin(g)).values()) // 3
    cache = MaterializationCache()
    assert triangle_count_node_iterator(g, cls, cache) == expect
    assert triangle_count_rank_merge(g, cls, cache) == expect


@exact_backends
@settings(max_examples=30, deadline=None)
@given(edges=edge_lists)
def test_kclique_matches_networkx_randomized(cls, edges):
    g = build_undirected(N, edges)
    sizes = Counter(len(c) for c in nx.enumerate_all_cliques(_networkx_twin(g)))
    cache = MaterializationCache()
    for ordering in ("DGR", "ADG"):
        for k in (3, 4, 5):
            for parallel in ("node", "edge"):
                got = kclique_count(g, k, ordering, parallel, set_cls=cls,
                                    cache=cache).count
                assert got == sizes[k], (ordering, k, parallel)


# The other k-clique kernels: the GBBS and Danisch et al. baselines, the
# set-algebra kClist of the ProbGraph drivers (exact on exact backends)
# and the 3-clique-stars, which are the triangles inside some 4-clique.
@exact_backends
@settings(max_examples=20, deadline=None)
@given(edges=edge_lists)
def test_kclique_baselines_and_stars_match_networkx(cls, edges):
    g = build_undirected(N, edges)
    cliques = list(nx.enumerate_all_cliques(_networkx_twin(g)))
    sizes = Counter(len(c) for c in cliques)
    cache = MaterializationCache()
    for k in (3, 4, 5):
        assert gbbs_kclique_count(g, k, cls, cache).count == sizes[k], k
        assert danisch_kclique_count(g, k, cls, cache).count == sizes[k], k
        for ordering in ("DGR", "ADG"):
            got = kclique_count_sets(g, k, cls, ordering, cache=cache)
            assert got == sizes[k], (k, ordering)
    starred = {frozenset(t) for c in cliques if len(c) == 4
               for t in combinations(c, 3)}
    assert kclique_star_count(g, 3, set_cls=cls, cache=cache) == len(starred)


# BK's Tomita pivot scan is one intersect_count_argmax instruction: its
# choice, and so the recursion shape, must not depend on the backend.
@exact_backends
@pytest.mark.parametrize("ordering", ["DGR", "ADG"])
@settings(max_examples=15, deadline=None)
@given(edges=edge_lists)
def test_bk_count_equals_networkx_randomized(cls, ordering, edges):
    g = build_undirected(N, edges)
    expect = sum(1 for _ in nx.find_cliques(_networkx_twin(g)))
    got = bron_kerbosch(g, ordering, cls)
    assert got.num_cliques == expect
    reference = bron_kerbosch(g, ordering, SortedSet)
    assert got.recursive_calls == reference.recursive_calls


# The routes on which BK's pivot_branch takes no fast path: subgraph_opt's
# dict adjacency runs the per-operation default, and sketch pivoting
# passes in the pivot it scanned on P's sketch.  The sketch of P is
# built once per outer vertex and maintained incrementally below it.
@pytest.mark.parametrize("ordering", ["DGR", "ADG"])
@settings(max_examples=15, deadline=None)
@given(edges=edge_lists)
def test_bk_routes_without_a_fast_path_equal_networkx(ordering, edges):
    g = build_undirected(N, edges)
    expect = sum(1 for _ in nx.find_cliques(_networkx_twin(g)))
    for cls in EXACT_SET_CLASSES:
        got = bron_kerbosch(g, ordering, cls, subgraph_opt=True)
        assert got.num_cliques == expect, cls.__name__
    for name in ("bloom", "kmv"):
        sketch_cls = get_set_class(name)
        cache = MaterializationCache()
        cache.set_graph(g, sketch_cls)  # its sketch builds stay out
        before = snapshot()
        got = bron_kerbosch(g, ordering, BitSet, pivot_set_cls=sketch_cls,
                            cache=cache)
        assert got.num_cliques == expect, name
        assert before.delta(snapshot()).sketch_builds == N, name
