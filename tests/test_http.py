"""The HTTP serving tier (platform/http.py + platform/jobs.py).

One server = one resident MiningSession behind an asyncio front door.
These tests run the real thing — a socket server on a loopback port,
exercised with stdlib ``http.client`` — because the serving tier's whole
contract is wire-level: request parsing, admission pushback headers,
job polling, and artifacts that survive a restart.
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
import threading
import time
from typing import List

import pytest

import repro.platform.bench as bench
from repro.platform.http import (
    MAX_BODY_BYTES,
    AdmissionControl,
    MiningHTTPServer,
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

    def test_query_answer_carries_a_task_profile(self, server):
        # A cell ships its task count and its summed and slowest task
        # time, not one float per task: the 4clique answer on sc-ht-mini
        # (one task per DAG arc, m = 1861) stays a few hundred bytes.
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            conn.request("POST", "/query", body=json.dumps(
                {"kernel": "4clique", "dataset": "sc-ht-mini",
                 "backend": "bitset", "ordering": "DGR"}))
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 200
        extras = json.loads(body)["result"]["cell"]["extras"]
        assert extras["tasks"] == 1861
        assert set(extras["task_seconds"]) == {"sum", "max"}
        assert "task_costs" not in extras
        assert len(body) < 4096

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

    def test_a_tenant_header_changes_nothing(self, server):
        # The server keeps no tenant table: a request that names a tenant
        # is answered like one that does not, budget and all, and no
        # answer names a tenant.
        body = {"kernel": "tc", "dataset": "sc-ht-mini",
                "backend": "bloom", "bits": 4096}
        cells = []
        for headers in ({}, {"X-Repro-Tenant": "capped"}):
            status, payload, _ = _request(server.port, "POST", "/query",
                                          body, headers)
            assert status == 200
            assert set(payload) == {"result"}
            cells.append({k: v for k, v in payload["result"]["cell"].items()
                          if k != "seconds"})
        assert cells[0] == cells[1]

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
            ("POST", "/query",                                # bad variant
             {"kernel": "tc", "dataset": "sc-ht-mini",
              "variants": [{"backend": "bitset"}, {"backend": "nope"}]},
             400),
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

    def test_oversized_body_is_a_413_then_close(self, server, caplog):
        request = (f"POST /query HTTP/1.1\r\nHost: test\r\n"
                   f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n").encode()
        with caplog.at_level(logging.ERROR), socket.create_connection(
                ("127.0.0.1", server.port), timeout=30) as sock:
            sock.sendall(request)
            response = b""
            while chunk := sock.recv(4096):  # b"" once the server closes
                response += chunk
        assert response.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in response
        assert f"exceeds {MAX_BODY_BYTES} bytes".encode() in response
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]
        # The server survives the refusal and keeps answering.
        status, health, _ = _request(server.port, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"

    def test_client_disconnecting_mid_query(self, server, monkeypatch,
                                            caplog):
        # Hold the query in service until the client has hung up, so the
        # answer is written to a closed connection.
        hung_up = threading.Event()
        answer = MiningSession._answer

        def held(session, *args, **kwargs):
            hung_up.wait(timeout=30)
            return answer(session, *args, **kwargs)

        monkeypatch.setattr(MiningSession, "_answer", held)
        body = json.dumps({"kernel": "tc", "dataset": "sc-ht-mini",
                           "backend": "bitset"}).encode()
        request = (f"POST /query HTTP/1.1\r\nHost: test\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        admission = server.admission
        admitted = admission.admitted
        with caplog.at_level(logging.DEBUG):
            with socket.create_connection(("127.0.0.1", server.port),
                                          timeout=30) as sock:
                sock.sendall(request)
                deadline = time.time() + 30
                while admission.admitted == admitted:
                    assert time.time() < deadline, "query never admitted"
                    time.sleep(0.01)
                assert admission.active == 1
            hung_up.set()
            deadline = time.time() + 30
            while admission.active:
                assert time.time() < deadline, "query never released"
                time.sleep(0.01)
            status, payload, _ = _request(
                server.port, "POST", "/query",
                {"kernel": "tc", "dataset": "sc-ht-mini",
                 "backend": "bitset"},
            )
        assert status == 200 and payload["result"]["value"] > 0
        assert admission.active == 0
        assert [r.getMessage() for r in caplog.records
                if r.levelno > logging.DEBUG] == []

    def test_healthz_and_stats(self, server):
        status, health, _ = _request(server.port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        status, stats, _ = _request(server.port, "GET", "/stats")
        assert status == 200
        assert stats["session"]["queries"] > 0
        # The session cache's measured materialize layer.
        assert stats["session"]["cache"]["build_seconds"] > 0
        assert stats["admission"]["admitted"] > 0
        assert stats["admission"]["rejected"] == 0
        # One admission bound: requests in service or waiting.
        assert stats["admission"]["max_inflight"] == 20
        assert "backlog" not in stats["admission"]
        assert set(stats) == {"session", "admission", "jobs",
                              "requests_served"}


class TestAdmissionControl:
    def test_bounded_queue_unit(self):
        admission = AdmissionControl(max_inflight=2)
        assert admission.try_acquire()
        assert admission.try_acquire()
        assert not admission.try_acquire()   # 1 in service + 1 waiting
        assert admission.rejected == 1
        admission.release(0.5)
        assert admission.try_acquire()
        assert admission.retry_after() >= 1

    def test_full_server_answers_429_with_retry_after(self):
        with running_server(max_inflight=1) as server:
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


class TestSuiteJobs:
    def test_job_lifecycle_and_artifact(self, artifact_dir):
        with running_server() as server:
            status, accepted, _ = _request(
                server.port, "POST", "/suite",
                {"smoke": True, "kernels": ["tc"]},
            )
            assert status == 202
            assert accepted["poll"] == f"/jobs/{accepted['job']}"
            record = _wait_for_job(server.port, accepted["job"])
            assert record["state"] == "done"
            assert record["schema"] == JOB_SCHEMA
            assert record["exact_mismatches"] == 0
            progress = record["progress"]
            assert progress["cells_done"] == progress["cells_total"] > 0
            assert progress["datasets_done"] == 1
            assert progress["current_dataset"] is None
            (path,) = record["artifacts"]
            artifact = json.loads(open(path).read())
            assert artifact["schema"] == "gms-suite/v3"
            assert artifact["dataset"] == "sc-ht-mini"
            # Job listing includes it.
            _, listing, _ = _request(server.port, "GET", "/jobs")
            assert [j["id"] for j in listing["jobs"]] == [accepted["job"]]
            _, stats, _ = _request(server.port, "GET", "/stats")
            assert stats["jobs"]["counts"] == {"done": 1}

    def test_a_tenant_header_is_ignored_by_suite_jobs(self, artifact_dir):
        # A job submitted with a tenant header runs like any other, and
        # neither its record nor its job.json names a tenant.
        with running_server(job_root=str(artifact_dir / "jobs")) as server:
            status, accepted, _ = _request(
                server.port, "POST", "/suite",
                {"smoke": True, "kernels": ["tc"]},
                headers={"X-Repro-Tenant": "team-a"},
            )
            assert status == 202
            record = _wait_for_job(server.port, accepted["job"])
            assert record["state"] == "done"
            assert "tenant" not in record
        on_disk = json.loads(
            (artifact_dir / "jobs" / accepted["job"] / "job.json").read_text())
        assert on_disk["state"] == "done"
        assert "tenant" not in on_disk

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
        assert diff_payloads(reference, served) == []

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
        job = store.create(plan={}, cells_total=4, datasets_total=1)
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


    def test_records_with_a_tenant_key_still_hydrate(self, artifact_dir):
        # A finished job as an older store wrote it, ``tenant`` key and
        # all: it loads with its state and artifacts, and ids continue
        # above it.
        job_dir = artifact_dir / "jobs" / "job-000007"
        job_dir.mkdir(parents=True)
        artifact = str(job_dir / "suite_sc-ht-mini.json")
        (job_dir / "job.json").write_text(json.dumps({
            "id": "job-000007", "tenant": "team-a", "plan": {},
            "state": "done", "submitted_at": 1.0, "started_at": 2.0,
            "finished_at": 3.0,
            "progress": {"cells_done": 4, "cells_total": 4},
            "artifacts": [artifact], "exact_mismatches": 0, "error": None,
            "schema": JOB_SCHEMA,
        }))
        store = JobStore(str(artifact_dir / "jobs"))
        job = store.get("job-000007")
        assert job.state == "done"
        assert job.artifacts == [artifact]
        assert job.progress["cells_done"] == 4
        assert "tenant" not in job.to_json()
        assert store.create(plan={}, cells_total=1,
                            datasets_total=1).id == "job-000008"


class TestServeHttpWiring:
    def test_serve_parser_accepts_http_flags(self):
        from repro.platform.serve import build_serve_parser

        ns = build_serve_parser().parse_args([
            "--http", "0", "--host", "0.0.0.0", "--max-inflight", "2",
            "--max-pending-jobs", "1", "--job-root", "/tmp/jobs",
        ])
        assert ns.http == 0
        assert ns.host == "0.0.0.0"
        assert ns.max_inflight == 2
        assert build_serve_parser().parse_args([]).max_inflight == 20
        assert ns.max_pending_jobs == 1
        assert ns.job_root == "/tmp/jobs"

    def test_serve_main_dispatches_to_http(self, monkeypatch):
        calls = {}
        import repro.platform.serve as serve

        def fake_serve_http(ns, session):
            calls["port"] = ns.http
            calls["budget"] = session.cache_budget_bytes
            return 0

        # serve_main imports serve_http from .http lazily; intercept there.
        import repro.platform.http as http_mod

        monkeypatch.setattr(http_mod, "serve_http", fake_serve_http)
        assert serve.serve_main(["--http", "8123",
                                 "--cache-budget-bytes", "64"]) == 0
        # The HTTP server gets the session built from serve's plan.
        assert calls == {"port": 8123, "budget": 64}

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
