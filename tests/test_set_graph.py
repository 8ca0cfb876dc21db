"""Set-centric graph representation (Listing 2)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import (BitSet, HashSet, RoaringSet, SortedSet, bit_set,
                        sorted_set)
from repro.core.registry import registered_set_classes
from repro.graph import SetGraph, build_set_graph, build_undirected, load_dataset
from repro.graph.generators import holme_kim
from repro.graph.stats import triangle_counts
from tests.conftest import random_csr


class TestSetGraph:
    def test_build_preserves_structure(self, set_cls):
        csr, _ = random_csr(30, 120, 61)
        sg = build_set_graph(csr, set_cls)
        assert sg.num_nodes == csr.num_nodes
        assert sg.num_edges == csr.num_edges
        assert sg.set_cls is set_cls
        for v in range(30):
            assert sg.out_degree(v) == csr.out_degree(v)
            assert np.array_equal(sg.out_neigh(v).to_array(),
                                  csr.out_neigh(v))

    def test_has_edge_symmetric(self):
        csr, G = random_csr(25, 90, 62)
        sg = build_set_graph(csr, BitSet)
        for u, v in list(G.edges())[:20]:
            assert sg.has_edge(u, v)
            assert sg.has_edge(v, u)
        assert not sg.has_edge(0, 0)

    def test_directed_edge_count(self):
        from repro.graph import build_directed

        g = build_directed(4, [(0, 1), (1, 2), (2, 3)])
        sg = build_set_graph(g, SortedSet)
        assert sg.directed
        assert sg.num_edges == 3

    def test_storage_accounting_varies_by_class(self):
        csr, _ = random_csr(60, 240, 63)
        sizes = {
            cls.__name__: build_set_graph(csr, cls).storage_bytes()
            for cls in (SortedSet, BitSet, RoaringSet)
        }
        assert all(size > 0 for size in sizes.values())
        # Dense bitvectors cost ~n bits per nonempty neighborhood; sorted
        # arrays cost 8 bytes per element — different orders entirely.
        assert len(set(sizes.values())) >= 2

    def test_each_backend_sizes_itself(self):
        # Each class's own storage_bytes model, summed over sc-ht-mini's
        # neighborhoods (the figures SetGraph's per-class walk gave).
        graph = load_dataset("sc-ht-mini")
        expected = {
            "SortedSet": 29776, "BitSet": 8654, "RoaringSet": 8616,
            "HashSet": 131616, "CompressedSortedSet": 6133,
            "BloomFilterSet": 29776, "KMVSketchSet": 29776,
        }
        sizes = {cls.__name__: build_set_graph(graph, cls).storage_bytes()
                 for cls in registered_set_classes()}
        assert {name: sizes[name] for name in expected} == expected

        class SubHash(HashSet):
            pass

        assert build_set_graph(graph, SubHash).storage_bytes() == 131616

    def test_vertices_iterator(self):
        g = build_undirected(5, [(0, 1)])
        sg = build_set_graph(g, SortedSet)
        assert list(sg.vertices()) == [0, 1, 2, 3, 4]

    def test_repr(self):
        g = build_undirected(3, [(0, 1)])
        assert "SetGraph" in repr(build_set_graph(g, BitSet))

    def test_mining_over_set_graph_neighborhoods(self):
        """SetGraph neighborhoods drive set-algebra kernels directly."""
        csr, G = random_csr(25, 110, 64)
        sg = build_set_graph(csr, BitSet)
        import networkx as nx

        expected = sum(nx.triangles(G).values()) // 6  # per-arc halves
        total = 0
        for v in range(25):
            sv = sg.out_neigh(v)
            for w in csr.out_neigh(v).tolist():
                total += sv.intersect_count(sg.out_neigh(w))
        assert total // 6 == sum(nx.triangles(G).values()) // 3


class TestIntersectCountPairs:
    """``SetGraph.intersect_count_pairs``: one instruction per pass."""

    def test_dispatches_to_the_graphs_set_class(self, set_cls):
        csr, G = random_csr(30, 120, 65)
        sg = build_set_graph(csr, set_cls)
        us = np.repeat(np.arange(30), csr.degrees())
        total = sg.intersect_count_pairs(us, csr.adjacency)
        assert total == set_cls.intersect_count_pairs(sg, us, csr.adjacency)
        if set_cls.IS_EXACT:
            import networkx as nx

            assert total == 6 * sum(nx.triangles(G).values()) // 3
        assert sg.intersect_count_pairs(us[:0], us[:0]) == 0

    def test_rank_merge_reads_the_dags_arcs(self, monkeypatch):
        # The DEG DAG keeps the arcs its build filtered, so rank merge
        # runs the arc filter once per build, not once per pass.
        from repro.graph import transforms
        from repro.graph.set_graph import MaterializationCache
        from repro.mining.triangles import triangle_count_rank_merge

        graph = holme_kim(300, 4, 0.5, seed=1)
        expected = int(triangle_counts(graph).sum()) // 3
        calls = []
        arc_filter = transforms.oriented_arcs

        def counted(graph, rank):
            calls.append(1)
            return arc_filter(graph, rank)

        monkeypatch.setattr(transforms, "oriented_arcs", counted)
        cache = MaterializationCache()
        for cls in (SortedSet, HashSet):
            assert [triangle_count_rank_merge(graph, cls, cache)
                    for _ in range(3)] == [expected] * 3
            order, dag = cache.oriented(graph, cls, "DEG")
            for kept, filtered in zip(dag.arcs,
                                      arc_filter(graph, order.rank)):
                assert np.array_equal(kept, filtered)
        assert len(calls) == 2
        assert build_set_graph(graph, SortedSet).arcs is None

    def test_bitset_above_the_width_cap_takes_the_default(self, monkeypatch):
        # One member at bit 64 * cap widens every row past the cap, and a
        # byte cap below rows × width × 8 bounds a matrix of narrow rows:
        # either way the per-vertex default (one intersect_count_many per
        # run of equal u) answers.  At both caps, the row matrix does.
        calls = []
        many = BitSet.intersect_count_many

        def counted(self, graph, vertices):
            calls.append(len(vertices))
            return many(self, graph, vertices)

        monkeypatch.setattr(BitSet, "intersect_count_many", counted)
        cap = bit_set._PAIR_MAX_WORDS
        matrix = 3 * 8 * cap
        for top, max_bytes, default in ((64 * cap, matrix, True),
                                        (64 * cap - 1, matrix - 1, True),
                                        (64 * cap - 1, matrix, False)):
            monkeypatch.setattr(bit_set, "_PAIR_MAX_BYTES", max_bytes)
            sg = SetGraph([BitSet.from_iterable(n)
                           for n in ([1, 2, top], [1, 2], [2, top])], BitSet)
            calls.clear()
            us, vs = np.array([0, 0, 2]), np.array([1, 2, 0])
            assert sg.intersect_count_pairs(us, vs) == 2 + 2 + 2
            assert calls == ([2, 1] if default else [])


def _pairs_peak(sg, us, vs):
    """``(value, peak bytes above the start)`` of one pair instruction."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        value = sg.intersect_count_pairs(us, vs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak - base


@pytest.mark.parametrize("cls", [BitSet, SortedSet],
                         ids=lambda c: c.__name__)
def test_pair_fast_path_peak_is_its_matrix_or_keys_plus_one_chunk(
        cls, monkeypatch):
    # The row matrix (bitset) or the arc keys (sorted) is the one
    # graph-sized array; the rest is one chunk plus a few words per
    # vertex, however many pairs there are.  One int64 array over the
    # pairs (320 KB here) would not fit the bound.
    graph = holme_kim(4000, 5, 0.5, seed=1)
    sg = build_set_graph(graph, cls)
    us = np.repeat(np.arange(graph.num_nodes), graph.degrees())
    vs = graph.adjacency
    if cls is BitSet:
        chunk = 64 << 10
        monkeypatch.setattr(bit_set, "_CHUNK_BYTES", chunk)
        graph_sized = graph.num_nodes * 8 * ((graph.num_nodes + 63) // 64)
    else:
        monkeypatch.setattr(sorted_set, "_PAIR_CHUNK", 1024)
        chunk = 8 * 8 * 1024  # at most 8 int64 arrays of one chunk
        graph_sized = 8 * len(vs)
    value, peak = _pairs_peak(sg, us, vs)
    assert value == 6 * int(triangle_counts(graph).sum()) // 3
    slack = (32 << 10) + 48 * graph.num_nodes
    assert 8 * len(us) > chunk + slack
    assert peak <= graph_sized + chunk + slack, (peak, graph_sized)
