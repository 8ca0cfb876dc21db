"""Graph statistics (Table 7 columns) and transformations."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    build_undirected,
    induced_subgraph,
    orient_by_rank,
    oriented_arcs,
    permute,
    rank_split,
    summarize,
    total_triangles,
    triangle_counts,
)
from tests.conftest import random_csr


class TestTriangles:
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_networkx(self, seed):
        csr, G = random_csr(50, 200, seed)
        ours = triangle_counts(csr)
        theirs = nx.triangles(G)
        assert all(ours[v] == theirs[v] for v in G)

    def test_triangle_free(self):
        g = build_undirected(4, [(0, 1), (1, 2), (2, 3)])
        assert total_triangles(g) == 0

    def test_complete_graph(self):
        n = 7
        g = build_undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        assert total_triangles(g) == n * (n - 1) * (n - 2) // 6


class TestSummary:
    def test_fields(self, karate):
        csr, G = karate
        s = summarize(csr, "karate")
        assert s.n == 34
        assert s.m == 78
        assert s.triangles == sum(nx.triangles(G).values()) // 3
        assert s.max_degree == max(dict(G.degree()).values())
        assert s.degeneracy == max(nx.core_number(G).values())
        assert s.diameter_estimate >= nx.diameter(G) - 1  # double sweep lower bound quality
        assert s.t_skew > 0
        assert "karate" in s.row()

    def test_empty_graph_summary(self):
        s = summarize(build_undirected(0, []), "empty")
        assert s.n == 0 and s.triangles == 0


class TestOrientByRank:
    @pytest.mark.parametrize("seed", range(3))
    def test_is_dag_partition(self, seed):
        csr, _ = random_csr(40, 160, seed)
        rank = np.random.default_rng(seed).permutation(40)
        dag = orient_by_rank(csr, rank)
        assert dag.directed
        assert dag.num_edges == csr.num_edges  # each edge kept exactly once
        for u in dag.vertices():
            for v in dag.out_neigh(u).tolist():
                assert rank[u] < rank[v] or (rank[u] == rank[v] and u < v)

    def test_rejects_directed_input(self):
        from repro.graph import build_directed

        g = build_directed(3, [(0, 1)])
        with pytest.raises(ValueError):
            orient_by_rank(g, np.arange(3))


class TestPermute:
    def test_roundtrip(self):
        csr, _ = random_csr(30, 90, 1)
        perm = np.random.default_rng(0).permutation(30)
        inv = np.empty(30, dtype=np.int64)
        inv[perm] = np.arange(30)
        assert permute(permute(csr, perm), inv) == csr

    def test_preserves_degree_multiset(self):
        csr, _ = random_csr(30, 90, 2)
        perm = np.random.default_rng(1).permutation(30)
        assert sorted(csr.degrees()) == sorted(permute(csr, perm).degrees())

    def test_rejects_non_permutation(self):
        csr, _ = random_csr(5, 6, 3)
        with pytest.raises(ValueError):
            permute(csr, np.zeros(5, dtype=np.int64))


class TestInducedSubgraph:
    def test_matches_networkx(self):
        csr, G = random_csr(30, 120, 4)
        verts = [1, 3, 5, 7, 9, 11]
        sub, mapping = induced_subgraph(csr, verts)
        nx_sub = G.subgraph(verts)
        assert sub.num_edges == nx_sub.number_of_edges()
        assert mapping.tolist() == sorted(verts)

    def test_empty_selection(self):
        csr, _ = random_csr(10, 20, 5)
        sub, mapping = induced_subgraph(csr, [])
        assert sub.num_nodes == 0


class TestRankSplit:
    def test_partition_along_the_order(self):
        csr, _ = random_csr(25, 80, 6)
        rank = np.random.default_rng(2).permutation(25)
        (p_off, p_arcs), (x_off, x_arcs) = rank_split(csr, rank)
        order = np.argsort(rank)
        assert len(p_off) == len(x_off) == 26
        for i, v in enumerate(order.tolist()):
            later = p_arcs[p_off[i]:p_off[i + 1]].tolist()
            earlier = x_arcs[x_off[i]:x_off[i + 1]].tolist()
            assert later == sorted(later) and earlier == sorted(earlier)
            assert sorted(later + earlier) == csr.out_neigh(v).tolist()
            assert all(rank[u] > rank[v] for u in later)
            assert all(rank[u] < rank[v] for u in earlier)
        # A run of the order splits to the same slice of the whole split.
        (b_off, b_arcs), (c_off, c_arcs) = rank_split(csr, rank, order[5:17])
        assert b_arcs.tolist() == p_arcs[p_off[5]:p_off[17]].tolist()
        assert c_arcs.tolist() == x_arcs[x_off[5]:x_off[17]].tolist()
        assert (b_off == p_off[5:18] - p_off[5]).all()
        assert (c_off == x_off[5:18] - x_off[5]).all()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40),
           edges=st.lists(st.tuples(st.integers(0, 39),
                                    st.integers(0, 39)), max_size=120),
           ranks=st.lists(st.integers(0, 5), min_size=40, max_size=40))
    def test_later_side_is_the_oriented_dag(self, n, edges, ranks):
        # Ties in the rank are allowed: both sides follow oriented_arcs'
        # rule, so every arc lands on exactly one side of its two ends.
        csr = build_undirected(n, [(u % n, v % n) for u, v in edges])
        rank = np.array(ranks[:n])
        (p_off, p_arcs), (x_off, x_arcs) = rank_split(csr, rank)
        order = np.argsort(rank, kind="stable")
        dag_off, dag_arcs = oriented_arcs(csr, rank)
        for i, v in enumerate(order.tolist()):
            later = p_arcs[p_off[i]:p_off[i + 1]].tolist()
            earlier = x_arcs[x_off[i]:x_off[i + 1]].tolist()
            assert later == dag_arcs[dag_off[v]:dag_off[v + 1]].tolist()
            assert all(v in dag_arcs[dag_off[u]:dag_off[u + 1]].tolist()
                       for u in earlier)
            assert sorted(later + earlier) == csr.out_neigh(v).tolist()
