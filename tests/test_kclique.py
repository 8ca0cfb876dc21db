"""k-clique listing/counting and its comparison baselines."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core import registered_set_classes
from repro.graph import build_undirected
from repro.graph import generators as gen
from repro.graph.set_graph import MaterializationCache
from repro.mining import (
    danisch_kclique_count,
    framework_kclique_count,
    gbbs_kclique_count,
    kclique_count,
    kclique_list,
)
from repro.platform.suite import (SUITE_KERNELS, ExperimentPlan,
                                  run_cell)
from repro.preprocess import ORDERINGS
from tests.conftest import random_csr


def nx_kclique_count(G, k):
    return sum(1 for c in nx.enumerate_all_cliques(G) if len(c) == k)


#: The suite kernels that take an ordering, run by the ordering oracle.
ORACLE_KERNELS = ("4clique", "kclique", "bk", "4clique-rec")
EXACT_CLASSES = [cls for cls in registered_set_classes() if cls.IS_EXACT]


@pytest.fixture(scope="module")
def oracle_graph():
    """The ordering oracle's graph, its networkx counts (k=5 for
    ``kclique``) and one materialization cache per exact backend."""
    csr, G = random_csr(30, 200, 12)
    truth = {"4clique": nx_kclique_count(G, 4),
             "kclique": nx_kclique_count(G, 5),
             "bk": sum(1 for _ in nx.find_cliques(G)),
             "4clique-rec": nx_kclique_count(G, 4)}
    return csr, truth, {cls: MaterializationCache() for cls in EXACT_CLASSES}


class TestCounts:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("parallel", ["node", "edge"])
    def test_matches_networkx(self, k, parallel):
        csr, G = random_csr(35, 190, 11)
        assert kclique_count(csr, k, "DGR", parallel).count == nx_kclique_count(G, k)

    @pytest.mark.parametrize("kernel", ORACLE_KERNELS)
    @pytest.mark.parametrize("cls", EXACT_CLASSES,
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_ordering_oracle(self, oracle_graph, ordering, cls, kernel):
        # Every ordering x exact backend x ordered suite kernel, one suite
        # cell each: a count depends on neither the vertex order nor the
        # set representation.
        csr, truth, caches = oracle_graph
        cell = run_cell(csr, cls, SUITE_KERNELS[kernel], cls.__name__,
                        ordering, ExperimentPlan(k=5), caches[cls])
        assert cell["value"] == truth[kernel]

    def test_k3_equals_triangles(self):
        csr, G = random_csr(40, 200, 13)
        assert kclique_count(csr, 3).count == sum(nx.triangles(G).values()) // 3

    def test_complete_graph_closed_form(self):
        from math import comb

        n = 9
        g = build_undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        for k in (3, 4, 5):
            assert kclique_count(g, k).count == comb(n, k)

    def test_invalid_k(self):
        csr, _ = random_csr(5, 5, 1)
        with pytest.raises(ValueError):
            kclique_count(csr, 1)
        with pytest.raises(ValueError):
            kclique_count(csr, 3, parallel="bogus")

    def test_no_cliques_graph(self):
        g = gen.road_grid(6, 6)
        assert kclique_count(g, 3).count == 0


class TestList:
    def test_list_matches_count_and_dedupes(self):
        csr, G = random_csr(30, 160, 14)
        lst = kclique_list(csr, 4)
        assert len(lst) == nx_kclique_count(G, 4)
        assert len({tuple(c) for c in lst}) == len(lst)
        for c in lst:
            for i, u in enumerate(c):
                for v in c[i + 1 :]:
                    assert G.has_edge(u, v)


class TestBaselines:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_all_baselines_agree(self, k):
        csr, G = random_csr(30, 170, 15)
        expect = nx_kclique_count(G, k)
        assert gbbs_kclique_count(csr, k).count == expect
        assert danisch_kclique_count(csr, k).count == expect
        assert framework_kclique_count(csr, k).count == expect

    def test_framework_guard(self):
        csr, _ = random_csr(30, 170, 16)
        with pytest.raises(MemoryError):
            framework_kclique_count(csr, 4, max_embeddings=1)

    def test_task_costs_recorded(self):
        csr, _ = random_csr(30, 170, 17)
        res = kclique_count(csr, 4, parallel="edge")
        assert len(res.task_costs) == csr.num_edges
        assert res.throughput() >= 0
