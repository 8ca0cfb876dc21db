"""One knob grammar: every surface parses with ``ExperimentPlan.with_knobs``.

The same inputs go in-process (the plan parser and the fluent ``Query``),
through the serve REPL's ``query`` line, through ``POST /query`` (as
the body and as a ``variants`` entry), and through ``POST /suite``.  A
bad input is a ``KeyError``/``ValueError`` in-process, an HTTP 400
(never a 500, never an accepted job, never a partly run batch) and one
``error:`` line from the REPL; a good key means the same thing
everywhere.  On the command line every knob flag is a plan field (or a
query alias) and means what its key means.
"""

from __future__ import annotations

import http.client
import io
import json
import time
from dataclasses import fields

import pytest

from repro.__main__ import FORWARDED, main
from repro.platform.http import running_server
from repro.platform.serve import build_serve_parser, serve_main
from repro.platform.session import MiningSession
from repro.platform.suite import (
    SESSION_FIELDS,
    ExperimentPlan,
    build_suite_parser,
    knob_names,
    plan_from_argv,
)

BAD_INPUTS = {
    "unknown-backend": {"backend": "nope"},
    "unknown-backend-list": {"set_classes": ["nope"]},
    "retired-backend": {"backend": "adaptive"},
    "retired-backend-list": {"set_classes": ["adaptive"]},
    "unknown-dispatch": {"dispatch": "adaptive"},
    "non-numeric-bits": {"bits": "abc"},
    "unknown-key": {"frobnicate": "1"},
    "session-owned-workers": {"workers": "2"},
    "pool-schedule": {"schedule": "dynamic"},
    "pool-transport": {"transport": "shm"},
    "repeats-zero": {"repeats": "0"},
    "k-one": {"k": "1"},
    "eps-negative": {"eps": "-1"},
    "eps-nan": {"eps": "nan"},
}

#: Every scalar query key, spelled as the REPL and ``/query`` take it.
GOOD_KNOBS = {
    "backend": "roaring", "ordering": "degeneracy", "k": "4", "eps": "0.1",
    "repeats": "1", "fpr": "0", "bits": "0", "shared_bits": "0",
    "kmv_k": "0", "cache_budget_bytes": "0",
}


def _post(port, path, body):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", path, body=json.dumps(body))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _repl(line: str):
    return serve_main(["--no-prompt"], stdin=io.StringIO(line + "\nquit\n"))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    with running_server(job_root=str(tmp_path_factory.mktemp("jobs"))) as srv:
        yield srv


@pytest.mark.parametrize("knobs", list(BAD_INPUTS.values()),
                         ids=list(BAD_INPUTS))
class TestOneGrammarOneError:
    def test_in_process(self, knobs):
        with pytest.raises((KeyError, ValueError)):
            ExperimentPlan().with_knobs(knobs)
        with MiningSession() as session:
            query = session.query("tc").on("sc-ht-mini")
            with pytest.raises((KeyError, ValueError)):
                query.with_overrides(knobs)

    def test_repl(self, knobs, capsys):
        tokens = " ".join(f"{k}={v}" for k, v in knobs.items())
        assert _repl(f"query tc sc-ht-mini {tokens}") == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "Traceback" not in err

    def test_query_endpoint(self, server, knobs):
        status, payload = _post(
            server.port, "/query",
            {"kernel": "tc", "dataset": "sc-ht-mini", **knobs},
        )
        assert status == 400, payload
        assert "invalid query" in payload["error"]

    def test_query_variant(self, server, knobs):
        # A bad variant after a good one fails the batch before any
        # variant runs.
        ran = server.session.queries_run
        status, payload = _post(
            server.port, "/query",
            {"kernel": "tc", "dataset": "sc-ht-mini",
             "variants": [{"backend": "bitset"}, knobs]},
        )
        assert status == 400, payload
        assert "invalid query" in payload["error"]
        assert server.session.queries_run == ran

    def test_suite_endpoint(self, server, knobs):
        jobs = len(server.store.jobs())
        status, payload = _post(server.port, "/suite",
                                {"smoke": True, **knobs})
        assert status == 400, payload
        assert len(server.store.jobs()) == jobs


class TestOneGrammarSameMeaning:
    def test_repl_accepts_every_query_key(self, capsys):
        tokens = " ".join(f"{k}={v}" for k, v in GOOD_KNOBS.items())
        assert _repl(f"query 4clique sc-ht-mini {tokens}") == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("4clique on")]
        assert "[roaring -> RoaringSet, DGR]" in line

    def test_surfaces_compile_the_same_plan(self, server):
        with MiningSession() as session:
            plan = session.query("4clique").with_overrides(
                {"dataset": "sc-ht-mini", **GOOD_KNOBS}).plan()
            direct = session.query("4clique").on("sc-ht-mini").backend(
                "roaring").ordering("DGR").run()
        assert plan.orderings == ("DGR",)
        assert plan.k == 4 and plan.set_classes == ("roaring",)
        status, payload = _post(
            server.port, "/query",
            {"kernel": "4clique", "dataset": "sc-ht-mini", **GOOD_KNOBS},
        )
        assert status == 200, payload
        assert payload["result"]["resolved_class"] == "RoaringSet"
        assert payload["result"]["value"] == direct.value

    def test_suite_honors_query_aliases_and_cache_budget(self, server):
        status, accepted = _post(
            server.port, "/suite",
            {"kernel": "tc", "backend": "bitset",
             "cache_budget_bytes": 1 << 22},
        )
        assert status == 202, accepted
        deadline = time.time() + 120
        while (job := server.store.get(accepted["job"])).state not in (
                "done", "failed"):
            assert time.time() < deadline
            time.sleep(0.05)
        assert job.state == "done", job.error
        (path,) = job.artifacts
        with open(path) as handle:
            artifact = json.load(handle)
        assert artifact["plan"]["kernels"] == ["tc"]
        assert artifact["plan"]["set_classes"] == ["bitset"]
        assert artifact["plan"]["cache_budget_bytes"] == 1 << 22
        assert [c["set_class"] for c in artifact["cells"]] == [
            "sorted", "bitset"]

    def test_request_keys_leave_out_session_fields(self):
        assert SESSION_FIELDS == ("workers",)
        assert "workers" not in knob_names()
        assert "workers" in knob_names(session=True)

    @pytest.mark.parametrize("argv", [
        ["--smoke", "--repeats", "0"],
        ["--smoke", "--repeats", "-3"],
        ["--smoke", "--workers", "0"],
    ], ids=["repeats-zero", "repeats-negative", "workers-zero"])
    def test_suite_cli_refuses_what_the_plan_refuses(self, argv, tmp_path,
                                                     monkeypatch, capsys):
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["suite", *argv])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_suite_cli_refuses_a_negative_eps(self, tmp_path, monkeypatch,
                                              capsys):
        # ADG would raise it mid-run; the plan refuses it before any cell.
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--orderings", "ADG", "--eps", "-1"])
        assert exc.value.code == 2
        assert "eps must be finite and >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["schedule", "transport"])
    def test_pool_mode_knobs_are_accepted_nowhere(self, key):
        with pytest.raises(KeyError, match="unknown query override"):
            ExperimentPlan().with_knobs({key: "dynamic"}, session=True)
        with pytest.raises(TypeError):
            ExperimentPlan(**{key: "dynamic"})
        with pytest.raises(TypeError):
            MiningSession(**{key: "dynamic"})
        with pytest.raises(SystemExit) as exc:
            build_serve_parser().parse_args([f"--{key}", "dynamic"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["suite", "--smoke", "--workers", "2", f"--{key}", "shm"])
        assert exc.value.code == 2


class TestCommandLineGrammar:
    def test_suite_flags_are_the_plan_fields(self):
        flags = {option for action in build_suite_parser()._actions
                 for option in action.option_strings}
        plan_flags = {"--" + f.name.replace("_", "-")
                      for f in fields(ExperimentPlan)}
        assert flags == plan_flags | {"--smoke", "--verbose", "-h", "--help"}

    @pytest.mark.parametrize("argv, knobs", [
        (["--orderings", "degeneracy"], {"orderings": ["degeneracy"]}),
        (["--bloom-fpr", "0.02"], {"bloom_fpr": "0.02"}),
        (["--set-classes", "roaring"], {"set_classes": ["roaring"]}),
        (["--cache-budget-bytes", "1"], {"cache_budget_bytes": "1"}),
    ], ids=["orderings", "bloom-fpr", "set-classes", "cache-budget-bytes"])
    def test_suite_flag_means_its_knob(self, argv, knobs):
        assert plan_from_argv(argv) == ExperimentPlan().with_knobs(
            knobs, session=True)

    @pytest.mark.parametrize("command", sorted(FORWARDED))
    def test_every_forwarded_command_answers_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["suite", "--dataset", "ca-grqc", "--set-class", "hash"],
        ["bk", "sc-ht-mini", "--set", "hash"],
        ["kclique", "sc-ht-mini", "--order", "DGR"],
        ["suite-diff", "a.json", "b.json", "--he"],
        ["aggregate", "--results", "results"],
        ["serve", "--work", "2"],
        ["lint", "--form", "json"],
    ], ids=["suite", "bk", "kclique", "suite-diff", "aggregate", "serve",
            "lint"])
    def test_no_parser_takes_a_flag_prefix(self, argv, tmp_path,
                                           monkeypatch, capsys):
        # Each line abbreviates a real flag (--datasets/--set-classes,
        # --set-class, --ordering, --help, --results-dir, --workers,
        # --format); prefix matching would run it as that flag.
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["suite", "--smoke", "--set-classes", "adaptive"],
        ["bk", "sc-ht-mini", "--set-class", "adaptive"],
    ], ids=["suite", "bk"])
    def test_retired_backend_exits_2(self, argv, tmp_path, monkeypatch,
                                     capsys):
        # The density-adaptive backend's name fails like any unknown one.
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unknown set classes ['adaptive']" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["suite", "--smoke", "--dispatch", "adaptive"],
        ["suite-diff", "a.json", "b.json", "--semantic"],
        ["serve", "--admission-backlog", "3"],
        ["serve", "--tenants", "tenants.json"],
    ], ids=["suite-dispatch", "suite-diff-semantic", "serve-backlog",
            "serve-tenants"])
    def test_removed_flags_exit_2(self, argv, tmp_path, monkeypatch,
                                  capsys):
        import repro.platform.bench as bench

        monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
