"""Synthetic generators and the Table 7 dataset registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DATASETS, dataset_names, load_dataset, suite
from repro.graph import generators as gen
from repro.graph.stats import total_triangles


class TestGenerators:
    def test_erdos_renyi_nm_exact(self):
        g = gen.erdos_renyi_nm(50, 100, seed=1)
        assert g.num_nodes == 50
        assert g.num_edges == 100

    def test_erdos_renyi_nm_caps_at_complete(self):
        g = gen.erdos_renyi_nm(5, 1000, seed=1)
        assert g.num_edges == 10

    def test_erdos_renyi_gnp_scale(self):
        g = gen.erdos_renyi(60, 0.2, seed=3)
        expected = 0.2 * 60 * 59 / 2
        assert 0.5 * expected < g.num_edges < 1.5 * expected

    def test_determinism(self):
        a = gen.kronecker(8, 4, seed=7)
        b = gen.kronecker(8, 4, seed=7)
        assert a == b
        assert a != gen.kronecker(8, 4, seed=8)

    def test_kronecker_power_law_skew(self):
        g = gen.kronecker(10, 8, seed=2)
        degrees = g.degrees()
        # Heavy tail: max degree far above the mean.
        assert degrees.max() > 5 * degrees.mean()

    def test_barabasi_albert_connected_tail(self):
        g = gen.barabasi_albert(200, 2, seed=4)
        assert g.num_nodes == 200
        assert g.degrees().max() > 8  # hubs emerge

    def test_holme_kim_has_many_triangles(self):
        clustered = gen.holme_kim(300, 4, 0.8, seed=5)
        unclustered = gen.barabasi_albert(300, 4, seed=5)
        assert total_triangles(clustered) > total_triangles(unclustered)

    def test_watts_strogatz_low_skew(self):
        g = gen.watts_strogatz(200, 8, 0.05, seed=6)
        degrees = g.degrees()
        assert degrees.max() <= 2 * degrees.mean()

    def test_road_grid_triangle_free_without_diagonals(self):
        g = gen.road_grid(10, 10, extra_p=0.0)
        assert total_triangles(g) == 0
        assert g.num_edges == 2 * 10 * 9

    def test_planted_cliques_contains_clique(self):
        g = gen.planted_cliques(100, 50, [(8, 1)], seed=7)
        # Some 8 vertices must form a clique: check max core >= 7.
        from repro.preprocess import degeneracy_order

        _, d = degeneracy_order(g)
        assert d >= 7

    def test_bipartite_projection_caps_raters(self):
        g = gen.bipartite_projection(200, 20, 3, seed=8, max_raters=10)
        # No vertex participates in a clique larger than the cap.
        from repro.preprocess import degeneracy_order

        _, d = degeneracy_order(g)
        assert d <= 10 * 3  # at most 3 items x cap-sized cliques

    def test_star_of_cliques_known_structure(self):
        g = gen.star_of_cliques(4, 3)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 6


class TestDatasets:
    def test_registry_is_nonempty_and_loads(self):
        assert len(DATASETS) >= 25
        g = load_dataset("gearbox-mini")
        assert g.num_nodes > 0

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("nope")

    def test_category_filter(self):
        social = dataset_names("so")
        assert "orkut-mini" in social
        assert all(DATASETS[n].category == "so" for n in social)

    def test_all_categories_covered(self):
        cats = {spec.category for spec in DATASETS.values()}
        assert cats >= {"so", "wb", "st", "sc", "re", "bi", "co", "ec", "ro"}

    def test_suites(self):
        assert len(suite("quick")) == 4
        assert set(suite("quick")) <= set(suite("all"))
        assert set(suite("default")) <= set(suite("all"))
        with pytest.raises(ValueError):
            suite("bogus")

    def test_datasets_deterministic(self):
        assert load_dataset("jester2-mini") == load_dataset("jester2-mini")

    def test_every_spec_has_provenance(self):
        for spec in DATASETS.values():
            assert spec.mirrors
            assert spec.why


class TestSnapShapedDatasets:
    """The entries shaped after SNAP graphs: registered and real-scale."""

    #: The published SNAP sizes, nodes and edges.
    PUBLISHED = {"ca-grqc": (5242, 14496), "email-eu-core": (1005, 16706)}
    #: What the seeded generators build: pinned so the graphs never drift.
    GENERATED = {"ca-grqc": (5242, 15717), "email-eu-core": (1005, 11073)}

    def test_registered_in_the_main_registry(self):
        for name in self.PUBLISHED:
            assert name in DATASETS
            assert "SNAP" in DATASETS[name].mirrors

    def test_deterministic_and_real_scale(self):
        for name, (nodes, edges) in self.PUBLISHED.items():
            g1 = load_dataset(name)
            assert g1 == load_dataset(name)
            assert (g1.num_nodes, g1.num_edges) == self.GENERATED[name]
            # Same order of magnitude as the published graph.
            assert 0.5 * nodes <= g1.num_nodes <= 2 * nodes
            assert 0.3 * edges <= g1.num_edges <= 3 * edges
