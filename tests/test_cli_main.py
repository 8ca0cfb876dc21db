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


def test_bk_with_set_class(capsys):
    assert main(["bk", "sc-ht-mini", "--set-class", "roaring"]) == 0


def test_kclique(capsys):
    assert main(["kclique", "sc-ht-mini", "-k", "3"]) == 0
    assert "3-cliques" in capsys.readouterr().out


def test_similarity(capsys):
    assert main(["similarity", "sc-ht-mini"]) == 0
    out = capsys.readouterr().out
    assert "jaccard" in out and "eff" in out


@pytest.mark.parametrize("method", ["JP-SL", "Johansson"])
def test_color(capsys, method):
    assert main(["color", "usa-roads-mini", "--method", method]) == 0
    assert "proper: True" in capsys.readouterr().out


@pytest.mark.parametrize("set_class", ["bloom", "kmv"])
def test_approx_tc(capsys, set_class):
    assert main(["approx", "sc-ht-mini", "--set-class", set_class]) == 0
    out = capsys.readouterr().out
    assert "estimate" in out and "rel. error" in out and "triangles" in out


def test_approx_four_clique(capsys):
    assert main(["approx", "sc-ht-mini", "--kernel", "4clique"]) == 0
    assert "4-cliques" in capsys.readouterr().out


def test_approx_accepts_exact_backends_too(capsys):
    assert main(["approx", "sc-ht-mini", "--set-class", "sorted"]) == 0
    assert "rel. error 0.00%" in capsys.readouterr().out


def test_approx_budget_flags_are_applied(capsys):
    assert main(["approx", "sc-ht-mini", "--set-class", "bloom",
                 "--bloom-bits", "4"]) == 0
    assert "BloomFilterSet_b4" in capsys.readouterr().out
    assert main(["approx", "sc-ht-mini", "--set-class", "kmv",
                 "--kmv-k", "8"]) == 0
    assert "KMVSketchSet_k8" in capsys.readouterr().out


def test_resolve_set_class_budgets():
    from repro.core import SortedSet
    from repro.platform import parse_args, resolve_set_class

    args = parse_args(["--set-class", "bloom", "--bloom-bits", "8"])
    assert args.resolve_set_class().BITS_PER_ELEMENT == 8
    assert resolve_set_class("kmv", kmv_k=16).K == 16
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


def test_approx_bk_kernel(capsys):
    assert main(["approx", "sc-ht-mini", "--kernel", "bk",
                 "--set-class", "kmv"]) == 0
    out = capsys.readouterr().out
    assert "identical: True" in out and "maximal cliques" in out


def test_approx_reconcile_flag(capsys):
    assert main(["approx", "sc-ht-mini", "--kernel", "4clique",
                 "--set-class", "bloom", "--bloom-bits", "4",
                 "--reconcile"]) == 0
    out = capsys.readouterr().out
    assert "4clique+reconcile" in out


def test_approx_shared_budget_flag(capsys):
    # 300 vertices in sc-ht-mini; 300 * 256 total bits → m = 256 per set.
    assert main(["approx", "sc-ht-mini", "--set-class", "bloom",
                 "--bloom-shared-bits", str(300 * 256)]) == 0
    assert "BloomFilterSet_m256" in capsys.readouterr().out


def test_similarity_includes_sketch_measure(capsys):
    assert main(["similarity", "sc-ht-mini"]) == 0
    out = capsys.readouterr().out
    assert "jaccard-kmv" in out


class TestSharedParserFlags:
    """parse_args / Args.resolve_set_class over the sketch-budget flags."""

    def test_parse_args_collects_all_budget_flags(self):
        from repro.platform import parse_args

        args = parse_args(["--set-class", "bloom", "--bloom-bits", "8",
                           "--kmv-k", "16", "--bloom-shared-bits", "4096"])
        assert args.set_class == "bloom"
        assert args.bloom_bits == 8
        assert args.kmv_k == 16
        assert args.bloom_shared_bits == 4096

    def test_shared_budget_needs_num_sets(self):
        from repro.platform import parse_args

        args = parse_args(["--set-class", "bloom",
                           "--bloom-shared-bits", "8192"])
        # Without a graph size the shared budget cannot be split…
        assert args.resolve_set_class().SHARED_BITS == 0
        # …with one, the factory fixes m = 8192/16 = 512 for all instances.
        cls = args.resolve_set_class(num_sets=16)
        assert cls.SHARED_BITS == 512

    def test_resolve_for_graph_splits_by_vertex_count(self):
        from repro.graph import load_dataset
        from repro.platform import parse_args, resolve_set_class_for_graph

        graph = load_dataset("sc-ht-mini")  # 300 vertices
        args = parse_args(["--set-class", "bloom",
                           "--bloom-shared-bits", str(300 * 128)])
        cls = resolve_set_class_for_graph(
            graph, args.set_class, bloom_shared_bits=args.bloom_shared_bits)
        assert cls.SHARED_BITS == 128
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

    def test_unknown_backend_error_paths(self):
        from repro.platform import build_parser, resolve_set_class

        with pytest.raises(KeyError, match="unknown set class"):
            resolve_set_class("frobnitz")
        with pytest.raises(SystemExit):  # argparse rejects via choices
            build_parser().parse_args(["--set-class", "frobnitz"])

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "2"), ("--schedule", "static"),
        ("--cache-budget-bytes", "2"), ("--transport", "shm"),
    ])
    def test_benchmark_parser_has_no_execution_flags(self, flag, value):
        # Nothing behind the benchmark parser runs a pool, so it must
        # refuse the flags rather than accept and ignore them.
        from repro.platform import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([flag, value])

    def test_parser_choices_include_lazy_backends(self):
        from repro.platform import parse_args

        args = parse_args(["--set-class", "kmv", "--kmv-k", "8"])
        assert args.resolve_set_class().K == 8


class TestBudgetSweepCommand:
    def test_budget_sweep_writes_artifact(self, tmp_path, monkeypatch, capsys):
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        assert main(["budget-sweep", "--dataset", "sc-ht-mini",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "Sketch budget sweep" in out
        artifact = tmp_path / "budget_sweep_sc-ht-mini.json"
        assert artifact.exists()
        import json

        payload = json.loads(artifact.read_text())
        assert payload["rows"] and all(
            r["bk_identical"] for r in payload["rows"]
        )

    def test_budget_sweep_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "budget-sweep" in capsys.readouterr().out


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
