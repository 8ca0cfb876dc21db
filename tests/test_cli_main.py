"""The ``python -m repro`` command-line driver."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.__main__ import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_datasets_listing(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "gearbox-mini" in out
    assert "mirrors" in out


def test_stats(capsys):
    assert main(["stats", "usa-roads-mini"]) == 0
    assert "m/n" in capsys.readouterr().out


def test_bk(capsys):
    assert main(["bk", "sc-ht-mini", "--variant", "BK-GMS-ADG"]) == 0
    out = capsys.readouterr().out
    assert "maximal cliques" in out
    assert "throughput" in out
    # The parallel numbers are modeled, not measured, and say so.
    assert "modeled 16-thread" in out and "modeled throughput" in out


def test_bk_with_set_class(capsys):
    assert main(["bk", "sc-ht-mini", "--set-class", "roaring"]) == 0


def test_kclique(capsys):
    assert main(["kclique", "sc-ht-mini", "-k", "3"]) == 0
    assert "3-cliques" in capsys.readouterr().out


def test_kclique_ordering_takes_aliases(capsys):
    assert main(["kclique", "sc-ht-mini", "--ordering", "degeneracy"]) == 0
    assert capsys.readouterr().out.startswith("KC-DGR-edge: ")


def test_similarity(capsys):
    assert main(["similarity", "sc-ht-mini"]) == 0
    out = capsys.readouterr().out
    assert "jaccard" in out and "eff" in out


@pytest.mark.parametrize("method", ["JP-SL", "Johansson"])
def test_color(capsys, method):
    assert main(["color", "usa-roads-mini", "--method", method]) == 0
    assert "proper: True" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["approx", "budget-sweep"])
def test_sketch_accuracy_commands_are_gone(command):
    # Sketch accuracy is measured as suite cells (see the next test).
    with pytest.raises(SystemExit) as exc:
        main([command, "sc-ht-mini"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags, resolved", [
    (["--set-classes", "bloom", "--bloom-bits", "4"], "BloomFilterSet_b4"),
    (["--set-classes", "kmv", "--kmv-k", "8"], "KMVSketchSet_k8"),
    # 300 vertices in sc-ht-mini; 300 * 256 total bits → m = 256 per set.
    (["--set-classes", "bloom", "--bloom-shared-bits", str(300 * 256)],
     "BloomFilterSet_m256"),
], ids=["bloom-bits", "kmv-k", "bloom-shared-bits"])
def test_suite_sketch_cells_apply_budget_flags(tmp_path, monkeypatch, capsys,
                                               flags, resolved):
    import json

    import repro.platform.bench as bench

    monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
    assert main(["suite", "--datasets", "sc-ht-mini", "--kernels", "tc",
                 "4clique-rec", "bk", "--orderings", "DGR", *flags]) == 0
    assert "rel err" in capsys.readouterr().out
    cells = json.loads((tmp_path / "suite_sc-ht-mini.json").read_text())[
        "cells"]
    sketched = {c["kernel"]: c for c in cells if not c["exact"]}
    assert list(sketched) == ["tc", "4clique-rec", "bk"]
    for cell in sketched.values():
        assert cell["resolved_class"].startswith(resolved)
        ref = next(c for c in cells if c["set_class"] == "sorted"
                   and c["kernel"] == cell["kernel"])
        assert cell["reference"] == ref["value"] > 0
        assert cell["rel_error"] == (
            abs(cell["value"] - ref["value"]) / ref["value"])
    # Sketch pivots never change BK's maximal cliques.
    assert sketched["bk"]["rel_error"] == 0.0


def test_resolve_set_class_budgets():
    from repro.core import SortedSet
    from repro.platform import resolve_set_class

    assert resolve_set_class("bloom", bloom_bits=8).BITS_PER_ELEMENT == 8
    assert resolve_set_class("kmv", kmv_k=16).K == 16
    # The budget factories give one class object per budget.
    assert (resolve_set_class("bloom", bloom_bits=8)
            is resolve_set_class("bloom", bloom_bits=8))
    assert (resolve_set_class("bloom", bloom_shared_bits=8192, num_sets=16)
            is resolve_set_class("bloom", bloom_shared_bits=8192,
                                 num_sets=16))
    assert (resolve_set_class("kmv", kmv_k=16)
            is resolve_set_class("kmv", kmv_k=16))
    assert (resolve_set_class("bloom", bloom_bits=8)
            is not resolve_set_class("bloom", bloom_bits=16))
    assert resolve_set_class("sorted") is SortedSet
    # Budget overrides are ignored for non-matching backends.
    assert resolve_set_class("sorted", bloom_bits=8) is SortedSet


def test_bk_runs_on_approx_backend(capsys):
    # The 5+ modularity hook: existing commands accept the new backends.
    assert main(["bk", "sc-ht-mini", "--set-class", "kmv"]) == 0
    assert "maximal cliques" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        main(["stats", "not-a-dataset"])


def test_similarity_includes_sketch_measure(capsys):
    assert main(["similarity", "sc-ht-mini"]) == 0
    out = capsys.readouterr().out
    assert "jaccard-kmv" in out


class TestSharedParserFlags:
    """The sketch-budget knob flags and the set-class resolution they feed."""

    def test_knob_flags_collect_all_budget_flags(self):
        import argparse

        from repro.platform.suite import (
            ExperimentPlan, add_knob_flags, plan_from_flags,
        )

        parser = argparse.ArgumentParser()
        add_knob_flags(parser, "--set-class", "--bloom-bits",
                       "--bloom-shared-bits", "--bloom-fpr", "--kmv-k")
        ns = parser.parse_args(["--set-class", "bloom", "--bloom-bits", "8",
                                "--kmv-k", "16", "--bloom-shared-bits",
                                "4096"])
        plan = plan_from_flags(parser, ns, ExperimentPlan())
        assert plan.set_classes == ("bloom",)
        assert plan.bloom_bits == 8
        assert plan.kmv_k == 16
        assert plan.bloom_shared_bits == 4096

    def test_shared_budget_needs_num_sets(self):
        from repro.platform import resolve_set_class

        # Without a graph size the shared budget cannot be split…
        assert resolve_set_class(
            "bloom", bloom_shared_bits=8192).SHARED_BITS == 0
        # …with one, the factory fixes m = 8192/16 = 512 for all instances.
        cls = resolve_set_class("bloom", bloom_shared_bits=8192, num_sets=16)
        assert cls.SHARED_BITS == 512

    def test_resolve_for_graph_splits_by_vertex_count(self):
        from repro.graph import load_dataset
        from repro.platform import ExperimentPlan
        from repro.platform.suite import resolve_backend

        graph = load_dataset("sc-ht-mini")  # 300 vertices
        plan = ExperimentPlan(bloom_shared_bits=300 * 128)
        cls = resolve_backend(plan, "bloom", graph)
        assert cls.SHARED_BITS == 128
        # The same budget on the same graph is the same class object.
        assert resolve_backend(plan, "bloom", graph) is cls
        a = cls.from_sorted_array(graph.out_neigh(0))
        b = cls.from_sorted_array(graph.out_neigh(299))
        assert a.sketch_bits() == b.sketch_bits() == 128

    def test_shared_budget_takes_precedence_over_per_element(self):
        from repro.platform import resolve_set_class

        cls = resolve_set_class("bloom", bloom_bits=8,
                                bloom_shared_bits=1 << 16, num_sets=64)
        assert cls.SHARED_BITS == 1024
        assert resolve_set_class("bloom", bloom_bits=8).SHARED_BITS == 0

    def test_budget_flags_ignored_for_non_matching_backends(self):
        from repro.core import SortedSet
        from repro.platform import resolve_set_class

        assert resolve_set_class("sorted", bloom_shared_bits=4096,
                                 num_sets=8) is SortedSet
        assert resolve_set_class("kmv", bloom_shared_bits=4096,
                                 num_sets=8).__name__ == "KMVSketchSet"

    def test_unknown_backend_error_paths(self, capsys):
        from repro.platform import resolve_set_class

        with pytest.raises(KeyError, match="unknown set class"):
            resolve_set_class("frobnitz")
        with pytest.raises(SystemExit) as exc:  # the plan refuses it
            main(["bk", "sc-ht-mini", "--set-class", "frobnitz"])
        assert exc.value.code == 2
        assert "unknown set classes ['frobnitz']" in capsys.readouterr().err


class TestLazyBackendRegistration:
    """Regression for the registry's lazy "bloom"/"kmv" hook (no more
    bottom-of-module circular import)."""

    def test_plain_core_import_resolves_lazy_names(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
        code = (
            "import sys\n"
            "from repro.core import get_set_class, set_class_names\n"
            # Nothing has touched the registry yet: the backends package
            # must not have been imported as a side effect.
            "assert 'repro.approx' not in sys.modules, 'approx imported eagerly'\n"
            "assert get_set_class('bloom').__name__ == 'BloomFilterSet'\n"
            "assert get_set_class('kmv').__name__ == 'KMVSketchSet'\n"
            "assert 'repro.approx' in sys.modules\n"
            "assert 'bloom' in set_class_names() and 'kmv' in set_class_names()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_registry_error_message_knows_lazy_names(self):
        from repro.core import get_set_class

        with pytest.raises(KeyError, match="bloom"):
            get_set_class("not-a-backend")

    def test_direct_set_classes_reads_see_lazy_backends(self):
        """Reading the exported SET_CLASSES dict (membership, iteration,
        lookup) must behave exactly as under the old eager registration."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
        code = (
            "import sys\n"
            "from repro.core import SET_CLASSES\n"
            "assert 'repro.approx' not in sys.modules\n"
            "assert 'bloom' in SET_CLASSES and 'kmv' in SET_CLASSES\n"
            "assert 'repro.approx' in sys.modules\n"
            "assert SET_CLASSES['kmv'].__name__ == 'KMVSketchSet'\n"
            "assert len(SET_CLASSES) >= 7\n"
            "assert {'bloom', 'kmv'} <= set(SET_CLASSES)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


def test_piped_output_closed_early_exits_quietly(tmp_path):
    """``python -m repro <cmd> | head -c1``: no traceback, one status."""
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_ARTIFACT_DIR=str(tmp_path))
    statuses = {}
    for argv in (["datasets"], ["stats", "sc-ht-mini"],
                 ["kclique", "sc-ht-mini"], ["suite", "--smoke"]):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # the reader is gone before the first write
        err = proc.stderr.read().decode()
        statuses[argv[0]] = proc.wait(timeout=300)
        proc.stderr.close()
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert set(statuses.values()) == {1}, statuses
