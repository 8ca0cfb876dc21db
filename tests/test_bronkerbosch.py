"""Maximal clique listing: all BK variants vs oracles and invariants."""

from __future__ import annotations

import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BitSet, HashSet, RoaringSet, SortedSet
from repro.core.counters import snapshot
from repro.graph import MaterializationCache, build_undirected, rank_split
from repro.graph import generators as gen
from repro.mining import BK_VARIANTS, bk_das, bron_kerbosch, run_bk_variant
from repro.mining import bronkerbosch
from tests.conftest import random_csr


def nx_cliques(G):
    return sorted(sorted(c) for c in nx.find_cliques(G))


class TestCorrectness:
    @pytest.mark.parametrize("variant", BK_VARIANTS)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_networkx(self, variant, seed):
        csr, G = random_csr(45, 220, seed)
        res = run_bk_variant(csr, variant, collect=True)
        assert sorted(sorted(c) for c in res.cliques) == nx_cliques(G)
        assert res.num_cliques == len(res.cliques)

    def test_all_set_classes_agree(self, set_cls):
        csr, G = random_csr(40, 220, 9)
        res = bron_kerbosch(csr, "ADG", set_cls, collect=True)
        assert sorted(sorted(c) for c in res.cliques) == nx_cliques(G)

    def test_subgraph_opt_equivalent(self):
        csr, G = random_csr(40, 260, 5)
        plain = bron_kerbosch(csr, "ADG", BitSet, subgraph_opt=False)
        sub = bron_kerbosch(csr, "ADG", BitSet, subgraph_opt=True)
        assert plain.num_cliques == sub.num_cliques

    def test_unknown_variant(self):
        csr, _ = random_csr(5, 5, 1)
        with pytest.raises(ValueError, match="unknown BK variant"):
            run_bk_variant(csr, "BK-NOPE")


#: The cold-graphs benchmark shapes: the registry's planted-clique
#: parameters for sc-ht-mini, gupta3-mini, ep-trust-mini and flickr-mini.
PLANTED_SHAPES = {
    "sc-ht": (300, 1500, [(15, 2), (8, 6)]),
    "gupta3": (900, 3600, [(26, 1), (12, 4)]),
    "ep-trust": (1300, 2600, [(22, 2), (8, 10)]),
    "flickr": (1500, 3000, [(12, 12), (8, 30)]),
}


class TestOrderIndependence:
    """The maximal-clique count does not depend on the outer-loop order,
    ADG's approximate degeneracy included; BitSet's pivot scans over
    ``P``/``X`` list their members through both ``to_array`` paths."""

    @pytest.mark.parametrize("shape", sorted(PLANTED_SHAPES))
    @pytest.mark.parametrize("seed", (1, 2))
    def test_adg_and_dgr_match_networkx(self, shape, seed):
        n, background_m, cliques = PLANTED_SHAPES[shape]
        csr = gen.planted_cliques(n, background_m, cliques, seed=seed)
        G = nx.Graph(list(csr.edges()))
        G.add_nodes_from(range(n))
        expect = sum(1 for _ in nx.find_cliques(G))
        for ordering in ("ADG", "DGR"):
            got = bron_kerbosch(csr, ordering, BitSet).num_cliques
            assert got == expect, ordering


class TestSubtreeInstruction:
    """Counting runs each outer vertex's subtree as one
    ``maximal_clique_count`` instruction; collecting runs the engine's
    per-call recursion.  Both report the same run."""

    @pytest.mark.parametrize("shape", sorted(PLANTED_SHAPES))
    def test_counting_equals_collecting(self, shape, set_cls):
        n, background_m, cliques = PLANTED_SHAPES[shape]
        csr = gen.planted_cliques(n, background_m, cliques, seed=1)
        cache = MaterializationCache()
        for ordering in ("DGR", "ADG"):
            bron_kerbosch(csr, ordering, set_cls, cache=cache)  # warm
            runs = []
            for collect in (True, False):
                before = snapshot()
                res = bron_kerbosch(csr, ordering, set_cls, collect=collect,
                                    cache=cache)
                runs.append((res.num_cliques, res.recursive_calls,
                             res.max_clique_size, len(res.task_costs),
                             before.delta(snapshot())))
                if collect:
                    sizes = [len(c) for c in res.cliques]
                    assert len(sizes) == res.num_cliques
                    assert max(sizes) == res.max_clique_size
            assert runs[0] == runs[1], ordering


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(0, 180))
    def test_cliques_are_maximal_and_unique(self, seed, m):
        csr, G = random_csr(30, m, seed)
        res = bron_kerbosch(csr, "ADG", BitSet, collect=True)
        seen = set()
        for clique in res.cliques:
            key = frozenset(clique)
            assert key not in seen, "duplicate maximal clique"
            seen.add(key)
            # Clique property.
            for i, u in enumerate(clique):
                for v in clique[i + 1 :]:
                    assert G.has_edge(u, v)
            # Maximality: no vertex adjacent to the whole clique.
            for w in G.nodes():
                if w in key:
                    continue
                assert not all(G.has_edge(w, u) for u in clique)

    def test_isolated_vertices_are_cliques(self):
        g = build_undirected(3, [])
        res = bron_kerbosch(g, "DEG", BitSet, collect=True)
        assert sorted(res.cliques) == [[0], [1], [2]]

    def test_empty_graph(self):
        g = build_undirected(0, [])
        assert bron_kerbosch(g, "DEG", BitSet).num_cliques == 0

    def test_single_clique_graph(self):
        n = 9
        g = build_undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        res = bron_kerbosch(g, "ADG", BitSet, collect=True)
        assert res.num_cliques == 1
        assert res.max_clique_size == n

    def test_disjoint_cliques_counted_exactly(self):
        g = gen.star_of_cliques(5, 4)
        res = bron_kerbosch(g, "DGR", BitSet)
        assert res.num_cliques == 4


class TestInstrumentation:
    def test_task_costs_cover_all_vertices(self):
        csr, _ = random_csr(30, 120, 2)
        res = bron_kerbosch(csr, "ADG", BitSet)
        assert len(res.task_costs) == 30
        assert res.mine_seconds >= 0
        assert res.reorder_seconds >= 0

    def test_throughput_metric(self):
        csr, _ = random_csr(30, 120, 3)
        res = bron_kerbosch(csr, "ADG", BitSet)
        assert res.throughput() > 0
        assert res.total_seconds == res.reorder_seconds + res.mine_seconds

    def test_adg_rounds_recorded(self):
        csr, _ = random_csr(100, 400, 4)
        res = bron_kerbosch(csr, "ADG", BitSet)
        assert 1 < res.ordering_rounds < 100

    def test_das_uses_degeneracy(self):
        csr, _ = random_csr(30, 120, 5)
        res = bk_das(csr)
        assert res.variant == "BK-DAS"
        assert res.ordering_rounds == 30  # sequential peeling: n rounds

    def test_block_builds_are_mined_but_in_no_task(self, monkeypatch):
        # Warm, the only from_csr calls left are a block's initial P/X
        # builds: mine_seconds times them, no task cost does.
        csr, _ = random_csr(30, 120, 6)
        cache = MaterializationCache()
        bron_kerbosch(csr, "DGR", BitSet, cache=cache)
        build = BitSet.from_csr.__func__

        def slow(cls, offsets, targets):
            time.sleep(0.05)
            return build(cls, offsets, targets)

        monkeypatch.setattr(BitSet, "from_csr", classmethod(slow))
        res = bron_kerbosch(csr, "DGR", BitSet, cache=cache)
        assert len(res.task_costs) == 30
        assert max(res.task_costs) < 0.05 < res.mine_seconds


class TestInitialSplit:
    """The outer loop's P/X sets come from one rank split, built in
    blocks of the order."""

    @pytest.mark.parametrize("cls", [BitSet, HashSet, SortedSet],
                             ids=lambda c: c.__name__)
    def test_block_size_changes_nothing(self, cls, monkeypatch):
        csr, _ = random_csr(60, 300, 7)
        runs = []
        for block_bytes in (1, 600, 4 << 20):  # one vertex .. one block
            monkeypatch.setattr(bronkerbosch, "_BLOCK_BYTES", block_bytes)
            cache = MaterializationCache()
            cache.set_graph(csr, cls)
            before = snapshot()
            res = bron_kerbosch(csr, "DGR", cls, collect=True, cache=cache)
            runs.append((sorted(res.cliques), res.recursive_calls,
                         len(res.task_costs), before.delta(snapshot())))
        assert runs[0] == runs[1] == runs[2]

    def test_construction_holds_one_block(self, monkeypatch):
        # Built up front, every vertex's P and X would hold more than the
        # graph's own bitset SetGraph; built block by block, BK holds one
        # block of them (and of the split arrays) at a time.
        graph = gen.holme_kim(20000, 5, 0.5, seed=1)
        cache = MaterializationCache()
        rank = cache.ordering(graph, "DGR").rank
        cache.set_graph(graph, BitSet)
        builds = []
        build = BitSet.from_csr.__func__

        def counted(cls, offsets, targets):
            builds.append(len(offsets) - 1)
            return build(cls, offsets, targets)

        monkeypatch.setattr(BitSet, "from_csr", classmethod(counted))
        monkeypatch.setattr(bronkerbosch, "_BLOCK_BYTES", 1 << 20)
        # Only the construction is measured: no recursion below it.
        monkeypatch.setattr(bronkerbosch._BKEngine, "expand",
                            lambda self, P, R, X, P_sketch=None: None)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res = bron_kerbosch(graph, "DGR", BitSet, cache=cache)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(res.task_costs) == graph.num_nodes
        assert sum(builds) == 2 * graph.num_nodes and len(builds) > 10
        (p_off, p_arcs), (x_off, x_arcs) = rank_split(graph, rank)
        held = sum(s._bits.bit_length() // 8
                   for s in (build(BitSet, p_off, p_arcs)
                             + build(BitSet, x_off, x_arcs)))
        # One block of sets, BitSet.from_csr's scratch while it builds
        # them, and the order, the task costs and a block's split arrays.
        slack = 100 * graph.num_nodes + (1 << 20)
        bound = 2 * bronkerbosch._BLOCK_BYTES + slack
        assert held > 8 * bound  # the bound below is a real constraint
        assert peak <= bound, (peak, held)
