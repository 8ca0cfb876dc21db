"""The HTTP serving tier (platform/http.py + platform/jobs.py).

One server = one resident MiningSession behind an asyncio front door.
These tests run the real thing — a socket server on a loopback port,
exercised with stdlib ``http.client`` — because the serving tier's whole
contract is wire-level: request parsing, admission pushback headers,
tenant headers, job polling, and artifacts that survive a restart.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import time
from typing import List

import pytest

import repro.platform.bench as bench
from repro.platform.http import (
    AdmissionControl,
    MiningHTTPServer,
    TenantQuota,
    load_tenants,
    running_server,
)
from repro.platform.jobs import JOB_SCHEMA, JobStore
from repro.platform.runner import diff_payloads
from repro.platform.session import MiningSession
from repro.platform.suite import ExperimentPlan

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _request(port: int, method: str, path: str, body=None, headers=None):
    """One request, parsed: ``(status, payload, response)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
            headers=headers or {},
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else {}, response
    finally:
        conn.close()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_for_job(port: int, job_id: str, timeout: float = 120.0):
    deadline = time.time() + timeout
    while True:
        status, record, _ = _request(port, "GET", f"/jobs/{job_id}")
        assert status == 200
        if record["state"] in ("done", "failed", "interrupted"):
            return record
        assert time.time() < deadline, f"job {job_id} never finished"
        time.sleep(0.05)


@pytest.fixture
def artifact_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "ARTIFACT_DIR", str(tmp_path))
    return tmp_path


class TestQueryEndpoint:
    @pytest.fixture(scope="class")
    def server(self):
        with running_server() as server:
            yield server

    def test_golden_query_over_a_real_socket(self, server):
        status, payload, response = _request(
            server.port, "POST", "/query",
            {"kernel": "tc", "dataset": "sc-ht-mini", "backend": "bitset"},
        )
        assert status == 200
        assert response.getheader("Content-Type") == "application/json"
        result = payload["result"]
        assert result["kernel"] == "tc"
        assert result["dataset"] == "sc-ht-mini"
        assert result["resolved_class"] == "BitSet"
        assert result["exact"] is True
        assert result["wall_seconds"] > 0
        assert result["counters"]["set_ops"] > 0
        assert payload["tenant"] == "public"
        # The golden value: the mini dataset's triangle count is pinned
        # by the whole suite; the wire must carry exactly it.
        with MiningSession() as session:
            direct = (session.query("tc").on("sc-ht-mini")
                      .backend("bitset").run())
        assert result["value"] == direct.value

    def test_query_cell_matches_the_cli_path(self, server):
        """The served cell is the suite cell — same fields, same values."""
        status, payload, _ = _request(
            server.port, "POST", "/query",
            {"kernel": "4clique", "dataset": "sc-ht-mini",
             "backend": "bitset", "ordering": "DGR"},
        )
        assert status == 200
        served = payload["result"]["cell"]
        with MiningSession() as session:
            direct = (session.query("4clique").on("sc-ht-mini")
                      .backend("bitset").ordering("DGR").run().cell)
        timing = ("seconds",)
        assert {k: v for k, v in served.items()
                if k not in timing and k != "extras"} == \
               {k: v for k, v in direct.items()
                if k not in timing and k != "extras"}

    def test_variants_run_as_one_batch(self, server):
        status, payload, _ = _request(
            server.port, "POST", "/query",
            {"kernel": "tc", "dataset": "sc-ht-mini",
             "variants": [{"backend": "bitset"}, {"backend": "sorted"}]},
        )
        assert status == 200
        results = payload["results"]
        assert [r["resolved_class"] for r in results] == \
            ["BitSet", "SortedSet"]
        assert results[0]["value"] == results[1]["value"]

    def test_bad_requests_answer_4xx_not_500(self, server):
        cases = [
            ("POST", "/query", {"dataset": "sc-ht-mini"}, 400),     # no kernel
            ("POST", "/query", {"kernel": "tc"}, 400),              # no dataset
            ("POST", "/query",
             {"kernel": "nope", "dataset": "sc-ht-mini"}, 400),
            ("POST", "/query",
             {"kernel": "tc", "dataset": "nope"}, 404),
            ("POST", "/query",
             {"kernel": "tc", "dataset": "sc-ht-mini",
              "unknown_knob": 1}, 400),
            ("GET", "/nope", None, 404),
            ("GET", "/jobs/job-999999", None, 404),
            ("GET", "/query", None, 405),
        ]
        for method, path, body, expected in cases:
            status, payload, _ = _request(server.port, method, path, body)
            assert status == expected, (path, payload)
            assert "error" in payload

    def test_malformed_json_is_a_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            conn.request("POST", "/query", body=b"{not json")
            response = conn.getresponse()
            assert response.status == 400
            assert "JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_a_400_then_close(self, server, length,
                                                    caplog):
        request = (f"POST /query HTTP/1.1\r\nHost: test\r\n"
                   f"Content-Length: {length}\r\n\r\n").encode()
        with caplog.at_level(logging.ERROR), socket.create_connection(
                ("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(request)
            response = b""
            while chunk := sock.recv(4096):  # b"" once the server closes
                response += chunk
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in response
        assert b"Content-Length must be" in response
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]

    def test_healthz_and_stats(self, server):
        status, health, _ = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        status, stats, _ = _request(server.port, "GET", "/stats")
        assert status == 200
        assert stats["session"]["queries"] > 0
        assert stats["admission"]["admitted"] > 0
        assert stats["admission"]["rejected"] == 0
        assert stats["tenants"]["public"]["usage"]["queries"] > 0


class TestAdmissionControl:
    def test_bounded_queue_unit(self):
        admission = AdmissionControl(max_inflight=1, backlog=1)
        assert admission.try_acquire()
        assert admission.try_acquire()
        assert not admission.try_acquire()   # 1 in service + 1 queued
        assert admission.rejected == 1
        admission.release(0.5)
        assert admission.try_acquire()
        assert admission.retry_after() >= 1

    def test_full_server_answers_429_with_retry_after(self):
        with running_server(max_inflight=1, backlog=0) as server:
            # Fill the only admission slot from the outside, exactly as a
            # stuck in-flight request would hold it.
            assert server.admission.try_acquire()
            try:
                status, payload, response = _request(
                    server.port, "POST", "/query",
                    {"kernel": "tc", "dataset": "sc-ht-mini",
                     "backend": "bitset"},
                )
                assert status == 429
                assert int(response.getheader("Retry-After")) >= 1
                assert "capacity" in payload["error"]
            finally:
                server.admission.release()
            # Slot freed: the same request is admitted and served.
            status, payload, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "sc-ht-mini",
                 "backend": "bitset"},
            )
            assert status == 200
            _, stats, _ = _request(server.port, "GET", "/stats")
            assert stats["admission"]["rejected"] == 1
            assert stats["tenants"]["public"]["usage"]["rejected"] == 1


class TestTenantQuotas:
    def test_clamp_unit(self):
        quota = TenantQuota(max_bloom_bits=64, max_cache_bytes=1 << 20,
                            worker_share=0.5)
        plan = ExperimentPlan().with_knobs(
            {"bits": 1024, "shared_bits": 32, "backend": "bloom"}
        )
        # shared_bits is under the cap: untouched, so not reported; the
        # unbounded (0) cache budget is lowered to the quota.
        assert quota.clamp(plan) == {
            "bits": {"requested": 1024, "granted": 64},
            "cache_budget_bytes": {"requested": None, "granted": 1 << 20},
        }
        assert quota.max_workers(4) == 2
        assert quota.max_workers(1) == 1             # floor, never 0
        assert TenantQuota().clamp(ExperimentPlan(bloom_bits=10 ** 9)) == {}
        assert TenantQuota().max_workers(4) is None

    def test_quota_threads_into_the_served_query(self):
        tenants = {"capped": TenantQuota(max_bloom_bits=64,
                                         max_cache_bytes=1 << 20)}
        with running_server(tenants=tenants) as server:
            status, payload, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "sc-ht-mini",
                 "backend": "bloom", "bits": 4096},
                headers={"X-Repro-Tenant": "capped"},
            )
            assert status == 200
            # The response tells the tenant what was degraded...
            assert payload["quota_clamped"]["bits"] == {
                "requested": 4096, "granted": 64,
            }
            # ...and the served result really ran under the granted
            # budget: a 64-bit-per-element Bloom backend, not 4096.
            assert payload["result"]["resolved_class"] != "BitSet"
            # An uncapped tenant with the same request is not clamped.
            status, payload, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "sc-ht-mini",
                 "backend": "bloom", "bits": 4096},
            )
            assert status == 200
            assert "quota_clamped" not in payload
            _, stats, _ = _request(server.port, "GET", "/stats")
            assert stats["tenants"]["capped"]["usage"]["clamped"] == 1
            assert stats["tenants"]["capped"]["quota"]["max_bloom_bits"] == 64

    def test_load_tenants_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({
            "alice": {"max_bloom_bits": 128, "worker_share": 0.5},
        }))
        table = load_tenants(str(path))
        assert table["alice"] == TenantQuota(max_bloom_bits=128,
                                             worker_share=0.5)
        assert load_tenants(None) == {}
        path.write_text(json.dumps({"bob": {"max_gpus": 3}}))
        with pytest.raises(ValueError, match="unknown quota field"):
            load_tenants(str(path))


class TestSuiteJobs:
    def test_job_lifecycle_and_artifact(self, artifact_dir):
        with running_server() as server:
            status, accepted, _ = _request(
                server.port, "POST", "/suite",
                {"smoke": True, "kernels": ["tc"]},
                headers={"X-Repro-Tenant": "team-a"},
            )
            assert status == 202
            assert accepted["poll"] == f"/jobs/{accepted['job']}"
            record = _wait_for_job(server.port, accepted["job"])
            assert record["state"] == "done"
            assert record["schema"] == JOB_SCHEMA
            assert record["tenant"] == "team-a"
            assert record["exact_mismatches"] == 0
            progress = record["progress"]
            assert progress["cells_done"] == progress["cells_total"] > 0
            assert progress["datasets_done"] == 1
            assert progress["current_dataset"] is None
            (path,) = record["artifacts"]
            artifact = json.loads(open(path).read())
            assert artifact["schema"] == "gms-suite/v2"
            assert artifact["dataset"] == "sc-ht-mini"
            # Job listing includes it.
            _, listing, _ = _request(server.port, "GET", "/jobs")
            assert [j["id"] for j in listing["jobs"]] == [accepted["job"]]
            _, stats, _ = _request(server.port, "GET", "/stats")
            assert stats["jobs"]["counts"] == {"done": 1}
            assert stats["tenants"]["team-a"]["usage"]["jobs"] == 1
            assert stats["tenants"]["team-a"]["usage"]["cells"] > 0

    def test_served_suite_is_suite_diff_identical_to_cli(self, artifact_dir):
        """The acceptance gate: HTTP job artifact == direct session run."""
        with MiningSession() as session:
            reference = session.run_plan(ExperimentPlan.smoke())[0]
        with running_server() as server:
            _, accepted, _ = _request(server.port, "POST", "/suite",
                                      {"smoke": True})
            record = _wait_for_job(server.port, accepted["job"])
            assert record["state"] == "done"
            (path,) = record["artifacts"]
            served = json.loads(open(path).read())
        assert diff_payloads(reference, served, semantic=True) == []

    def test_invalid_plans_rejected_at_submission(self, artifact_dir):
        with running_server() as server:
            cases = [
                {"kernels": ["nope"]},
                {"datasets": ["nope"]},
                {"orderings": ["NOPE"]},
                {"datasets": "not-a-list"},
                {"frobnicate": 1},
            ]
            for body in cases:
                status, payload, _ = _request(
                    server.port, "POST", "/suite", body
                )
                assert status == 400, (body, payload)
            # Nothing was accepted, so the store stays empty.
            _, listing, _ = _request(server.port, "GET", "/jobs")
            assert listing["jobs"] == []

    def test_full_job_backlog_answers_429(self, artifact_dir):
        import asyncio
        import threading

        release = threading.Event()
        with running_server(max_pending_jobs=1) as server:
            async def stuck(job, plan):
                # Park the job worker off-loop until the test says so —
                # the submissions below then fill the queue
                # deterministically instead of racing the drain.
                await asyncio.get_event_loop().run_in_executor(
                    None, release.wait
                )

            server._execute_job = stuck
            try:
                _, first, _ = _request(server.port, "POST", "/suite",
                                       {"smoke": True})
                deadline = time.time() + 30
                while server._job_queue.qsize() > 0:   # worker picked it up
                    assert time.time() < deadline
                    time.sleep(0.01)
                status, _, _ = _request(server.port, "POST", "/suite",
                                        {"smoke": True})
                assert status == 202                   # fills the backlog
                status, payload, response = _request(
                    server.port, "POST", "/suite", {"smoke": True}
                )
                assert status == 429
                assert response.getheader("Retry-After") is not None
                assert "backlog" in payload["error"]
            finally:
                release.set()

    def test_jobs_survive_a_server_restart(self, artifact_dir):
        root = str(artifact_dir / "jobs")
        with running_server(job_root=root) as server:
            _, accepted, _ = _request(server.port, "POST", "/suite",
                                      {"smoke": True, "kernels": ["tc"]})
            record = _wait_for_job(server.port, accepted["job"])
            assert record["state"] == "done"
        # New process, same store root: the answer is still there.
        with running_server(job_root=root) as server:
            status, record, _ = _request(
                server.port, "GET", f"/jobs/{accepted['job']}"
            )
            assert status == 200
            assert record["state"] == "done"
            (path,) = record["artifacts"]
            assert json.loads(open(path).read())["dataset"] == "sc-ht-mini"
            # And new ids continue above the hydrated ones.
            _, accepted2, _ = _request(server.port, "POST", "/suite",
                                       {"smoke": True, "kernels": ["tc"]})
            assert accepted2["job"] > accepted["job"]
            _wait_for_job(server.port, accepted2["job"])

    def test_interrupted_jobs_are_marked_on_hydration(self, artifact_dir):
        store = JobStore(str(artifact_dir / "jobs"))
        job = store.create(plan={}, tenant="public",
                           cells_total=4, datasets_total=1)
        job.state = "running"
        store.persist(job)
        # A fresh store over the same root = a restarted server: the
        # abandoned run must read as interrupted, durably.
        reloaded = JobStore(str(artifact_dir / "jobs")).get(job.id)
        assert reloaded.state == "interrupted"
        assert "restarted" in reloaded.error
        on_disk = json.loads(
            (artifact_dir / "jobs" / job.id / "job.json").read_text()
        )
        assert on_disk["state"] == "interrupted"


class TestServeHttpWiring:
    def test_serve_parser_accepts_http_flags(self):
        from repro.platform.serve import build_serve_parser

        ns = build_serve_parser().parse_args([
            "--http", "0", "--host", "0.0.0.0", "--max-inflight", "2",
            "--admission-backlog", "3", "--max-pending-jobs", "1",
            "--job-root", "/tmp/jobs",
        ])
        assert ns.http == 0
        assert ns.host == "0.0.0.0"
        assert ns.max_inflight == 2
        assert ns.admission_backlog == 3
        assert ns.max_pending_jobs == 1
        assert ns.job_root == "/tmp/jobs"

    def test_serve_main_dispatches_to_http(self, monkeypatch):
        calls = {}
        import repro.platform.serve as serve

        def fake_serve_http(ns):
            calls["port"] = ns.http
            return 0

        # serve_main imports serve_http from .http lazily; intercept there.
        import repro.platform.http as http_mod

        monkeypatch.setattr(http_mod, "serve_http", fake_serve_http)
        assert serve.serve_main(["--http", "8123"]) == 0
        assert calls["port"] == 8123

    def test_sigterm_closes_the_session_and_its_pool(self, tmp_path):
        # SIGTERM ends serve_forever like Ctrl-C: the server stops, the
        # session closes, and the pool workers exit with the process.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--http", "0",
             "--workers", "2", "--job-root", str(tmp_path / "jobs")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env,
        )
        workers: List[int] = []
        try:
            line = proc.stdout.readline()
            port = int(re.search(r":(\d+) ", line).group(1))
            status, _, _ = _request(port, "POST", "/query", {
                "kernel": "tc", "dataset": "sc-ht-mini",
                "variants": [{"backend": "bitset"}],
            })
            assert status == 200
            workers = [int(pid) for pid in subprocess.run(
                ["ps", "-o", "pid=", "--ppid", str(proc.pid)],
                capture_output=True, text=True, check=True,
            ).stdout.split()]
            assert len(workers) == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

    def test_default_job_root_tracks_artifact_dir(self, artifact_dir):
        with MiningSession() as session:
            server = MiningHTTPServer(session)
            assert server.store.root == str(artifact_dir / "jobs")
