"""Set-centric graph representation (Listing 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BitSet, HashSet, RoaringSet, SortedSet
from repro.core.registry import registered_set_classes
from repro.graph import SetGraph, build_set_graph, build_undirected, load_dataset
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
            "AdaptiveSet": 39264, "BloomFilterSet": 29776,
            "KMVSketchSet": 29776,
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
