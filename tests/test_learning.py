"""Vertex similarity, link prediction, clustering, community detection."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import build_undirected
from repro.learning import (
    SIMILARITY_MEASURES,
    evaluate_scheme,
    jarvis_patrick,
    label_propagation,
    louvain,
    modularity,
    predict_links,
    score_pairs,
    similarity,
    similarity_all_pairs,
    sparsify,
)
from tests.conftest import random_csr


class TestSimilarity:
    @pytest.fixture(scope="class")
    def pair_graph(self):
        return random_csr(40, 160, 21)

    def test_jaccard_matches_networkx(self, pair_graph):
        csr, G = pair_graph
        pairs = [(0, 1), (2, 3), (10, 30), (5, 5)]
        for u, v, s in nx.jaccard_coefficient(G, pairs):
            assert abs(similarity(csr, u, v, "jaccard") - s) < 1e-12

    def test_adamic_adar_matches_networkx(self, pair_graph):
        csr, G = pair_graph
        for u, v, s in nx.adamic_adar_index(G, [(0, 1), (4, 9)]):
            assert abs(similarity(csr, u, v, "adamic_adar") - s) < 1e-9

    def test_resource_allocation_matches_networkx(self, pair_graph):
        csr, G = pair_graph
        for u, v, s in nx.resource_allocation_index(G, [(0, 1), (4, 9)]):
            assert abs(similarity(csr, u, v, "resource_allocation") - s) < 1e-9

    def test_preferential_attachment_matches_networkx(self, pair_graph):
        csr, G = pair_graph
        for u, v, s in nx.preferential_attachment(G, [(0, 1), (4, 9)]):
            assert similarity(csr, u, v, "preferential_attachment") == s

    def test_common_and_total_neighbors(self, pair_graph):
        csr, G = pair_graph
        cn = len(list(nx.common_neighbors(G, 0, 1)))
        assert similarity(csr, 0, 1, "common_neighbors") == cn
        assert similarity(csr, 0, 1, "total_neighbors") == (
            G.degree(0) + G.degree(1) - cn
        )

    def test_overlap_bounds(self, pair_graph):
        csr, _ = pair_graph
        val = similarity(csr, 0, 1, "overlap")
        assert 0.0 <= val <= 1.0

    def test_unknown_measure(self, pair_graph):
        csr, _ = pair_graph
        with pytest.raises(KeyError, match="unknown measure"):
            similarity(csr, 0, 1, "cosine-nope")

    def test_galloping_equals_merge_everywhere(self, pair_graph):
        csr, _ = pair_graph
        for measure in SIMILARITY_MEASURES:
            a = similarity_all_pairs(csr, measure, "merge")
            b = similarity_all_pairs(csr, measure, "galloping")
            assert a == b

    def test_score_pairs_vectorized_driver(self, pair_graph):
        csr, _ = pair_graph
        pairs = [(0, 1), (2, 3)]
        scores = score_pairs(csr, pairs, "jaccard")
        assert len(scores) == 2
        assert scores[0] == similarity(csr, 0, 1, "jaccard")


class TestLinkPrediction:
    def test_sparsify_partition_invariants(self):
        """§6.7: E_sparse ∪ E_rndm = E and E_sparse ∩ E_rndm = ∅."""
        csr, _ = random_csr(40, 200, 22)
        sparse, removed = sparsify(csr, 0.2, seed=1)
        original = {tuple(e) for e in csr.edge_array().tolist()}
        kept = {tuple(e) for e in sparse.edge_array().tolist()}
        assert kept | removed == original
        assert kept & removed == set()

    def test_sparsify_fraction_validated(self):
        csr, _ = random_csr(10, 20, 23)
        with pytest.raises(ValueError):
            sparsify(csr, 0.0)
        with pytest.raises(ValueError):
            sparsify(csr, 1.0)

    def test_predictions_are_non_edges(self):
        csr, _ = random_csr(40, 200, 24)
        sparse, _ = sparsify(csr, 0.15, seed=2)
        for u, v, _score in predict_links(sparse, 20):
            assert not sparse.has_edge(u, v)

    def test_beats_random_on_community_graph(self):
        G = nx.planted_partition_graph(4, 25, 0.55, 0.01, seed=3)
        csr = build_undirected(100, list(G.edges()))
        res = evaluate_scheme(csr, "jaccard", fraction=0.1, seed=1)
        non_edges = 100 * 99 / 2 - csr.num_edges
        random_rate = res.removed / non_edges
        assert res.effectiveness > 3 * random_rate
        assert 0.0 <= res.effectiveness <= 1.0

    def test_unknown_measure(self):
        csr, _ = random_csr(10, 30, 25)
        with pytest.raises(KeyError):
            evaluate_scheme(csr, "nope")


class TestCommunities:
    @pytest.fixture(scope="class")
    def planted(self):
        G = nx.planted_partition_graph(4, 20, 0.6, 0.02, seed=5)
        return build_undirected(80, list(G.edges())), G

    def test_louvain_modularity_positive(self, planted):
        csr, _ = planted
        labels = louvain(csr)
        assert modularity(csr, labels) > 0.4

    def test_louvain_recovers_planted_blocks(self, planted):
        csr, _ = planted
        labels = louvain(csr)
        # Majority of each planted block shares a label.
        agree = 0
        for b in range(4):
            block = labels[b * 20 : (b + 1) * 20]
            agree += np.bincount(block).max()
        assert agree >= 0.8 * 80

    def test_label_propagation_converges(self, planted):
        csr, _ = planted
        labels = label_propagation(csr, seed=1)
        assert len(labels) == 80
        assert modularity(csr, labels) > 0.3

    def test_jarvis_patrick_separates_components(self):
        # Two disjoint cliques must never merge.
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i + 5, j + 5) for i in range(5) for j in range(i + 1, 5)]
        csr = build_undirected(10, edges)
        labels = jarvis_patrick(csr, k=4, k_min=1)
        assert labels[0] == labels[4]
        assert labels[5] == labels[9]
        assert labels[0] != labels[5]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_jarvis_patrick_matches_plain_set_reference(self, seed):
        # Reference: k-NN lists as Python sets, the SNN graph's components
        # from networkx.
        csr, _ = random_csr(40, 160, seed)
        k, k_min = 5, 2
        knn = []
        for u in csr.vertices():
            scored = sorted(
                ((similarity(csr, u, v, "jaccard"), v)
                 for v in csr.out_neigh(u).tolist()),
                key=lambda t: (-t[0], t[1]),
            )
            knn.append({v for _, v in scored[:k]})
        snn = nx.Graph()
        snn.add_nodes_from(range(csr.num_nodes))
        snn.add_edges_from(
            (u, v) for u in range(csr.num_nodes) for v in knn[u]
            if u < v and u in knn[v] and len(knn[u] & knn[v]) >= k_min
        )
        labels = jarvis_patrick(csr, k=k, k_min=k_min)
        clusters = {frozenset(np.flatnonzero(labels == c).tolist())
                    for c in set(labels.tolist())}
        assert clusters == {frozenset(c)
                            for c in nx.connected_components(snn)}

    def test_modularity_of_trivial_partitions(self, planted):
        csr, _ = planted
        one = np.zeros(80, dtype=np.int64)
        assert abs(modularity(csr, one)) < 0.3  # single block near 0
        singletons = np.arange(80)
        assert modularity(csr, singletons) < 0.0

    def test_empty_graph(self):
        assert len(louvain(build_undirected(0, []))) == 0
