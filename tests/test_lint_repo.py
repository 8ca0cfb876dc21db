"""Integration coverage of ``repro lint``: the repo itself, the CLI,
the baseline workflow, and the ``gms-lint/v1`` artifact contract.

The headline test is the self-audit: the repository must be clean under
the default rule pack modulo the committed baseline — that is the
acceptance criterion of the analyzer PR, and from now on the regression
gate for every invariant the rules encode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_paths
from repro.analysis.cli import DEFAULT_BASELINE_NAME, find_repo_root, main

REPO_ROOT = find_repo_root(Path(__file__).resolve().parent)
SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def repo_findings():
    return analyze_paths([SRC], REPO_ROOT)


class TestRepoSelfAudit:
    def test_repo_clean_modulo_committed_baseline(self, repo_findings):
        baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
        new, _ = baseline.partition(repo_findings)
        assert new == [], (
            "new lint findings:\n"
            + "\n".join(f.format_text() for f in new)
        )

    def test_committed_baseline_has_no_stale_entries(self, repo_findings):
        baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME)
        assert baseline.stale_entries(repo_findings) == []

    def test_known_grandfathered_debt_is_exact(self, repo_findings):
        # No debt left: the repo is clean with no baseline at all, and the
        # committed baseline is empty.
        assert repo_findings == []
        assert not Baseline.load(REPO_ROOT / DEFAULT_BASELINE_NAME).entries

    def test_cli_entry_point_exits_zero_on_repo(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK: 0 new finding(s)" in proc.stdout


class TestArtifactDeterminism:
    def run_json(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = main(["--format", "json", "--output", str(out),
                     "--root", str(REPO_ROOT), str(SRC), *extra])
        return code, json.loads(out.read_text())

    def test_schema_and_stability_across_runs(self, tmp_path, capsys):
        code1, first = self.run_json(tmp_path, "a.json")
        code2, second = self.run_json(tmp_path, "b.json")
        capsys.readouterr()
        assert code1 == code2 == 0
        assert first == second  # byte-identical reruns
        assert first["schema"] == "gms-lint/v1"
        assert first["ok"] is True
        assert first["counts"]["new"] == 0
        assert first["counts"]["baselined"] == len(
            [f for f in first["findings"] if f["baselined"]]
        )

    def test_paths_are_repo_relative_posix_and_sorted(self, tmp_path,
                                                      capsys):
        _, payload = self.run_json(tmp_path, "c.json")
        capsys.readouterr()
        keys = [(f["path"], f["line"], f["col"], f["rule"])
                for f in payload["findings"]]
        assert keys == sorted(keys)
        for finding in payload["findings"]:
            assert not Path(finding["path"]).is_absolute()
            assert "\\" not in finding["path"]
        assert payload["paths"] == ["src/repro"]

    def test_rule_selection_reflected_in_artifact(self, tmp_path, capsys):
        _, payload = self.run_json(tmp_path, "d.json",
                                   extra=["--select", "GMS004,GMS003"])
        capsys.readouterr()
        assert payload["selected"] == ["GMS003", "GMS004"]
        assert payload["findings"] == []


class TestCLIWorkflow:
    def write_bad_tree(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "src" / "repro" / "mining"
        pkg.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "bad.py").write_text(
            "import numpy as np\n\n\n"
            "def shrink(a, b):\n"
            "    return np.intersect1d(a, b)\n"
        )
        return tmp_path

    def test_exit_one_on_new_findings(self, tmp_path, capsys):
        root = self.write_bad_tree(tmp_path)
        code = main(["--root", str(root), str(root / "src" / "repro")])
        out = capsys.readouterr().out
        assert code == 1
        assert "GMS001" in out
        assert "src/repro/mining/bad.py:5" in out

    def test_write_baseline_then_clean_then_stale(self, tmp_path, capsys):
        root = self.write_bad_tree(tmp_path)
        target = str(root / "src" / "repro")
        # 1. Grandfather the finding.
        assert main(["--root", str(root), "--write-baseline", target]) == 0
        # 2. The gate is green with the baseline...
        assert main(["--root", str(root), target]) == 0
        # ...but --no-baseline still shows the debt.
        assert main(["--root", str(root), "--no-baseline", target]) == 1
        capsys.readouterr()
        # 3. Pay the debt: the entry goes stale (reported, not fatal).
        (root / "src" / "repro" / "mining" / "bad.py").write_text(
            "def shrink(a, b):\n    return a.intersect(b)\n"
        )
        assert main(["--root", str(root), target]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_ignore_drops_a_rule(self, tmp_path, capsys):
        root = self.write_bad_tree(tmp_path)
        code = main(["--root", str(root), "--ignore", "GMS001",
                     str(root / "src" / "repro")])
        capsys.readouterr()
        assert code == 0

    def test_rules_listing(self, capsys):
        assert main(["--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("GMS001", "GMS002", "GMS003", "GMS004", "GMS005"):
            assert rule_id in out

    def test_missing_path_is_an_error(self, tmp_path, capsys):
        code = main(["--root", str(tmp_path),
                     str(tmp_path / "does-not-exist")])
        assert code == 2
        assert "no such path" in capsys.readouterr().err

    def test_bad_baseline_schema_is_an_error(self, tmp_path, capsys):
        root = self.write_bad_tree(tmp_path)
        bad = root / DEFAULT_BASELINE_NAME
        bad.write_text('{"schema": "bogus/v9", "entries": []}')
        code = main(["--root", str(root), str(root / "src" / "repro")])
        assert code == 2
        assert "bad baseline" in capsys.readouterr().err

    def test_duplicate_findings_need_duplicate_entries(self, tmp_path,
                                                       capsys):
        root = self.write_bad_tree(tmp_path)
        target = str(root / "src" / "repro")
        assert main(["--root", str(root), "--write-baseline", target]) == 0
        # A second copy of the same violation must gate as NEW.
        (root / "src" / "repro" / "mining" / "bad.py").write_text(
            "import numpy as np\n\n\n"
            "def shrink(a, b):\n"
            "    return np.intersect1d(a, b)\n\n\n"
            "def shrink2(a, b):\n"
            "    return np.intersect1d(a, b)\n"
        )
        capsys.readouterr()
        assert main(["--root", str(root), target]) == 1
