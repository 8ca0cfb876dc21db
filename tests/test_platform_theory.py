"""CLI, bench harness helpers, and the Table 5/6/8 bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import BitSet
from repro.graph import build_model, load_dataset
from repro.mining import bron_kerbosch
from repro.platform import (
    parallel_reorder_seconds,
    print_table,
    simulated_parallel_seconds,
    write_artifact,
)
from repro.theory import TABLE5, TABLE6, check_scaling, table8_time
from tests.conftest import random_csr


class TestBenchHelpers:
    def test_parallel_reorder_models(self):
        # DGR: no speedup; ADG/DEG: near-linear.
        assert parallel_reorder_seconds("DGR", 1.0, 100, 16) == 1.0
        adg = parallel_reorder_seconds("ADG", 1.0, 8, 16)
        assert adg < 0.1
        deg = parallel_reorder_seconds("DEG", 1.0, 1, 16)
        assert deg < adg + 1.0 / 16 + 1e-3
        with pytest.raises(ValueError):
            parallel_reorder_seconds("ADG", 1.0, 8, 0)

    def test_simulated_parallel_seconds_decreases(self):
        g = load_dataset("sc-ht-mini")
        res = bron_kerbosch(g, "ADG", BitSet)
        t1 = simulated_parallel_seconds(res, threads=1)
        t16 = simulated_parallel_seconds(res, threads=16)
        assert t16 < t1
        assert t1 == pytest.approx(
            res.reorder_seconds + sum(res.task_costs), rel=0.1
        )

    def test_print_table_smoke(self, capsys):
        print_table("demo", ["a", "b"], [[1, 2], [3, 4]])
        out = capsys.readouterr().out
        assert "demo" in out and "3" in out

    def test_write_artifact(self, tmp_path, monkeypatch):
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        path = bench.write_artifact("t", {"x": np.arange(3)})
        assert path.endswith("t.json")
        import json

        assert json.load(open(path))["x"] == [0, 1, 2]


class TestTheory:
    def test_table5_entries_evaluate(self):
        for name, bound in TABLE5.items():
            w = bound.work(n=1000, m=5000, d=10, k=4, Delta=50, eps=0.1)
            dpt = bound.depth(n=1000, m=5000, d=10, k=4, Delta=50, eps=0.1)
            s = bound.space(n=1000, m=5000, d=10, k=4, K=100, Delta=50, p=16)
            assert w > 0 and dpt > 0 and s > 0, name

    def test_adg_depth_polylog(self):
        adg = TABLE5["adg"]
        assert adg.depth(n=10**6, m=10**7) < 500  # log² n

    def test_bk_adg_beats_das_work_on_sparse(self):
        """On constant-degeneracy graphs ADG work ≪ Das's 3^(n/3)."""
        kw = dict(n=300, m=1500, d=4, eps=0.1)
        assert TABLE5["bk-adg"].work(**kw) < TABLE5["bk-das"].work(**kw)

    def test_bk_adg_depth_beats_eppstein(self):
        kw = dict(n=10_000, m=100_000, d=20)
        assert TABLE5["bk-adg"].depth(**kw) < TABLE5["bk-eppstein"].depth(**kw)

    def test_table6_ordering_consistent_with_paper(self):
        kw = dict(n=200, m=2000, d=6, eps=0.1)
        # This paper's bound adds only a small factor over Eppstein's.
        ours = TABLE6["this-paper"](**kw)
        epp = TABLE6["eppstein"](**kw)
        das = TABLE6["das"](**kw)
        assert epp <= ours <= das

    def test_table8_lookup(self):
        al = table8_time("bfs", "AL", 1000, 5000, 50)
        am = table8_time("bfs", "AM", 1000, 5000, 50)
        assert al < am
        with pytest.raises(KeyError):
            table8_time("bfs", "CSR++", 10, 10, 2)

    def test_check_scaling_identity(self):
        measured = {"a": 1.0, "b": 4.0}
        predicted = {"a": 10.0, "b": 40.0}
        ratios = check_scaling(measured, predicted)
        assert ratios["a->b"] == pytest.approx(1.0)


class TestAdjacencyModels:
    @pytest.mark.parametrize("kind", ["AL", "AM", "EL-sorted", "EL-unsorted"])
    def test_query_equivalence_with_csr(self, kind):
        csr, _ = random_csr(25, 90, 43)
        model = build_model(csr, kind)
        assert model.num_nodes == csr.num_nodes
        assert model.num_edges == csr.num_edges
        assert sorted(model.iter_edges()) == sorted(csr.edges())
        for v in range(25):
            assert sorted(model.neighbors(v).tolist()) == csr.out_neigh(v).tolist()
            assert model.degree(v) == csr.out_degree(v)
        for u, v in [(0, 1), (3, 17), (24, 0)]:
            assert model.has_edge(u, v) == csr.has_edge(u, v)

    def test_unknown_model(self):
        csr, _ = random_csr(5, 6, 44)
        with pytest.raises(KeyError):
            build_model(csr, "B-tree")

    def test_storage_ordering(self):
        csr, _ = random_csr(100, 300, 45)
        am = build_model(csr, "AM").storage_bytes()
        al = build_model(csr, "AL").storage_bytes()
        assert al < am  # sparse graph: AM pays n² cells


class TestTable9Bounds:
    def test_has_edge_ordering(self):
        from repro.theory import table9_time

        n, m, d = 10_000, 80_000, 500
        am = table9_time("has-edge", "AM", n, m, d)
        al = table9_time("has-edge", "AL", n, m, d)
        el_u = table9_time("has-edge", "EL-unsorted", n, m, d)
        el_s = table9_time("has-edge", "EL-sorted", n, m, d)
        assert am <= al <= el_s <= el_u

    def test_neighborhood_ordering(self):
        from repro.theory import table9_time

        n, m, d = 10_000, 80_000, 50
        assert table9_time("iter-neighborhood", "AL", n, m, d) < table9_time(
            "iter-neighborhood", "AM", n, m, d
        )
        assert table9_time("iter-neighborhood", "AM", n, m, d) < table9_time(
            "iter-neighborhood", "EL-unsorted", n, m, d
        )

    def test_unknown_entry(self):
        import pytest as _pytest

        from repro.theory import table9_time

        with _pytest.raises(KeyError):
            table9_time("has-edge", "B-tree", 10, 10, 2)
