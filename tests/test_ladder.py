"""The scale ladder (``python -m repro ladder``) and the relabelling oracle."""

from __future__ import annotations

import copy
import itertools
import json
from pathlib import Path

import networkx as nx
import pytest

from repro.__main__ import main as repro_main
from repro.core import bit_set, sorted_set
from repro.graph.generators import holme_kim
from repro.platform import ladder

SMALL = ("holme_kim", {"n": 300, "m_attach": 4, "p_triangle": 0.5,
                       "seed": 1})
CELLS = [("sorted", "tc"), ("bitset", "tc-merge"), ("hash", "bk")]


@pytest.fixture(scope="module")
def rung():
    return ladder.run_rung(*SMALL, cells=CELLS)


def test_a_rung_records_its_layers_and_cells(rung):
    assert rung["label"] == ("holme_kim(n=300, m_attach=4, p_triangle=0.5, "
                             "seed=1)")
    assert rung["num_edges"] == holme_kim(300, 4, 0.5, seed=1).num_edges
    for layer in ("reference_seconds", "generate_seconds", "load_seconds"):
        assert rung[layer] > 0
    assert set(rung["order_seconds"]) == {"DGR", "DEG"}
    assert set(rung["materialize"]) == set(ladder.BACKENDS)
    assert [(c["set_class"], c["kernel"]) for c in rung["cells"]] == CELLS
    tc, tc_merge, bk = rung["cells"]
    assert tc["value"] == tc_merge["value"] > 0
    for cell in rung["cells"]:
        assert cell["seconds"] > 0 and cell["set_ops"] > 0
        assert cell["storage_bytes"] > 0 and cell["peak_bytes"] > 0
        assert cell["repeats"] == ladder.REPEATS
    # tc reads the undirected SetGraph, as materialize builds it.
    assert tc["storage_bytes"] == \
        rung["materialize"]["sorted"]["storage_bytes"]


def test_cells_over_the_byte_cap_are_skipped(monkeypatch):
    monkeypatch.setattr(ladder, "MAX_BYTES", 1)
    rung = ladder.run_rung(*SMALL, cells=CELLS)
    assert all("skipped" in c and "value" not in c for c in rung["cells"])
    assert all("skipped" in m for m in rung["materialize"].values())


def test_cells_over_the_time_cap_are_skipped(rung, monkeypatch):
    # Estimated from the previous rung: its time times the edge ratio to
    # the 1.5.
    previous = copy.deepcopy(rung)
    previous["num_edges"] //= 4
    previous["cells"][0]["seconds"] = ladder.MAX_SECONDS
    bigger = ladder.run_rung(*SMALL, previous=previous, cells=CELLS)
    assert "skipped" in bigger["cells"][0]
    assert "value" in bigger["cells"][1]


def test_check_passes_a_rerun_and_flags_changes(rung, monkeypatch):
    committed = {"rungs": [rung]}
    monkeypatch.setattr(ladder, "CHECK_EDGES", 10 ** 6)
    monkeypatch.setattr(ladder, "CHECK_FACTOR", 1e6)
    assert ladder.check_ladder(committed) == []
    changed = copy.deepcopy(committed)
    changed["rungs"][0]["cells"][0]["value"] += 1
    changed["rungs"][0]["cells"][1]["seconds"] = 0.0
    monkeypatch.setattr(ladder, "CHECK_FACTOR", 5.0)
    failures = ladder.check_ladder(changed)
    assert len(failures) == 2
    assert "value" in failures[0] and "bitset tc-merge" in failures[1]
    # Rungs above CHECK_EDGES are not rerun.
    monkeypatch.setattr(ladder, "CHECK_EDGES", 10)
    assert ladder.check_ladder(changed) == []


def test_committed_artifact_holds_every_ladder_cell():
    # check_ladder indexes its rerun by (backend, kernel): a committed
    # cell of a backend the ladder no longer runs would be a KeyError.
    path = Path(__file__).resolve().parent.parent / "BENCH_ladder.json"
    payload = json.loads(path.read_text())
    assert payload["schema"] == ladder.SCHEMA
    assert tuple(payload["backends"]) == ladder.BACKENDS
    assert tuple(payload["kernels"]) == ladder.KERNELS
    for rung in payload["rungs"]:
        assert tuple(rung["materialize"]) == ladder.BACKENDS
        assert sorted((c["set_class"], c["kernel"]) for c in rung["cells"]) \
            == sorted(itertools.product(ladder.BACKENDS, ladder.KERNELS))


def test_relabel_oracle_on_a_small_graph(monkeypatch):
    # The CI step runs this on holme_kim(20000, 5, 0.5, seed=1); here the
    # chunks shrink so that they act on a small graph too.
    monkeypatch.setattr(sorted_set, "_PAIR_CHUNK", 64)
    monkeypatch.setattr(bit_set, "_CHUNK_BYTES", 256)
    graph = holme_kim(400, 4, 0.5, seed=3)
    values = ladder.relabel_oracle(graph)
    assert ladder.oracle_failures(values) == []
    assert set(values) == {"tc", "tc-merge", "4clique"}
    assert sorted(values["tc"]) == ["bitset", "compressed", "hash",
                                    "roaring", "sorted"]
    assert sorted(values["4clique"]) == sorted(values["tc"])
    nx_graph = nx.Graph(list(graph.edges()))
    truth = sum(nx.triangles(nx_graph).values()) // 3
    assert values["tc"]["sorted"] == [truth, truth]
    four = sum(1 for c in nx.enumerate_all_cliques(nx_graph) if len(c) == 4)
    assert four > 0 and values["4clique"]["sorted"] == [four, four]
    values["tc"]["hash"][1] += 1
    assert ladder.oracle_failures(values) == [f"tc: {values['tc']}"]


def test_ladder_command_writes_its_artifact(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ladder, "RUNGS", (SMALL,))
    monkeypatch.setattr(ladder, "BACKENDS", ("sorted",))
    monkeypatch.setattr(ladder, "KERNELS", ("tc",))
    out = tmp_path / "ladder.json"
    assert repro_main(["ladder", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == ladder.SCHEMA
    (rung,) = payload["rungs"]
    assert [c["kernel"] for c in rung["cells"]] == ["tc"]
    monkeypatch.setattr(ladder, "CHECK_FACTOR", 1000.0)
    assert repro_main(["ladder", "--check", str(out)]) == 0
    assert "ladder check: 0 failure(s)" in capsys.readouterr().out
