"""Asyncio HTTP/JSON front door for a resident :class:`MiningSession`.

``python -m repro serve --http PORT`` turns the session REPL's
single-operator model into graph-mining-as-a-service: one process holds
one pre-warmed session (shared materialization cache, resident worker
pool, merged counters), and remote clients talk JSON over HTTP/1.1.
Everything is stdlib — :mod:`asyncio` sockets with a hand-rolled
HTTP/1.1 request parser — so the serving tier adds no dependencies the
mining tiers don't already have.

Endpoints
---------
``POST /query``
    Body is a dict of query keys (the README's table; ``kernel`` and
    ``dataset`` required), optionally with ``variants``, a list of
    override dicts answered as one batch.  Parsed by
    :meth:`~repro.platform.suite.ExperimentPlan.with_knobs` through the
    fluent :class:`~repro.platform.session.Query` builder and answered
    *synchronously* — the response carries the full
    :class:`~repro.platform.session.QueryResult` as JSON.
``POST /suite``
    Body is a dict of the same keys describing an
    :class:`~repro.platform.suite.ExperimentPlan` (list fields such as
    ``datasets``/``kernels`` take lists), optionally with
    ``{"smoke": true}`` to start from the smoke matrix.  Answers ``202``
    with a job id immediately; the plan executes in the background on
    the session pool, one dataset at a time so queued queries interleave
    between datasets.  Any bad key or value is a ``400`` at submission.
``GET /jobs/<id>`` / ``GET /jobs``
    Poll a job (state, per-cell progress, artifact paths, error) / list
    all jobs the store knows, including those from previous server
    processes (the store is persistent — see
    :mod:`repro.platform.jobs`).
``GET /stats``
    The session's :meth:`~MiningSession.stats` plus admission-control
    and job-store gauges.
``GET /healthz``
    Liveness: ``200`` with uptime and the resident pool state.

Concurrency model
-----------------
The session object is not thread-safe, so *all* session work — queries
and suite jobs alike — funnels through one single-thread executor via
``run_in_executor``.  The event loop stays free to answer polls and
health checks while a kernel runs.  Suite jobs execute per-dataset
sub-plans (``replace(plan, datasets=(d,))``) rather than the whole plan
in one executor hop, so a long sweep yields the session between
datasets and synchronous queries interleave instead of starving.

Admission control bounds the query path: at most ``max_inflight``
requests admitted at once, in service or waiting for the session
thread; beyond that ``POST /query`` answers ``429`` with a
``Retry-After`` estimated from the recent service rate.  Job
submissions are bounded separately by ``max_pending_jobs``.  These two
are the server's only bounds: every request runs the plan its body
asks for, on the session's workers.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import math
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..graph import DATASETS
from .jobs import JobStore
from .session import MiningSession, QueryResult
from .suite import (
    ExperimentPlan,
    _exact_mismatches,
    expand_cells,
)

__all__ = [
    "AdmissionControl",
    "HttpError",
    "MiningHTTPServer",
    "running_server",
    "serve_http",
]

logger = logging.getLogger(__name__)

#: Largest request body accepted, in bytes — a mining request is a small
#: JSON document; anything bigger is a client bug, not a workload.
MAX_BODY_BYTES = 1 << 20

_JSON_HEADERS = {"Content-Type": "application/json"}

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request-level failure mapped straight to an HTTP response."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class AdmissionControl:
    """Bounded-queue admission for the synchronous query path.

    ``max_inflight`` requests may be admitted at once.  They serialize on
    the one session thread, so one of them is in service and the rest
    wait; the bound caps how much work is committed, not parallelism.
    Beyond it, :meth:`try_acquire` refuses and the server answers
    ``429`` — shedding load at the door instead of letting the queue
    grow without bound, with ``Retry-After`` estimated from an EWMA of
    recent service times.

    Thread-safe: the event loop acquires/releases, tests and stats
    readers probe from other threads.
    """

    def __init__(self, max_inflight: int) -> None:
        self.max_inflight = max(1, max_inflight)
        self.active = 0
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self._ewma_seconds = 0.05
        self._lock = threading.Lock()

    def try_acquire(self) -> bool:
        with self._lock:
            if self.active >= self.max_inflight:
                self.rejected += 1
                return False
            self.active += 1
            self.admitted += 1
            return True

    def release(self, service_seconds: Optional[float] = None) -> None:
        with self._lock:
            self.active = max(0, self.active - 1)
            self.completed += 1
            if service_seconds is not None:
                self._ewma_seconds = (
                    0.8 * self._ewma_seconds + 0.2 * service_seconds
                )

    def retry_after(self) -> int:
        """Whole seconds a refused client should wait before retrying.

        The queue ahead of the client drains at roughly one request per
        EWMA service time through the single session executor.
        """
        with self._lock:
            return max(1, math.ceil(self.active * self._ewma_seconds))

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "active": self.active,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "ewma_service_seconds": round(self._ewma_seconds, 6),
            }


# ---------------------------------------------------------------------------
# HTTP plumbing (hand-rolled HTTP/1.1 over asyncio streams)
# ---------------------------------------------------------------------------


@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Dict[str, object]:
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


async def _read_request(reader: asyncio.StreamReader) -> Optional[_Request]:
    """Parse one HTTP/1.1 request, or ``None`` on clean EOF."""
    try:
        request_line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if b":" not in line:
            raise HttpError(400, f"malformed header line {line!r}")
        key, value = line.decode("latin-1").split(":", 1)
        headers[key.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length") or 0)
    except ValueError:
        length = -1
    if length < 0:
        raise HttpError(400, "Content-Length must be a non-negative integer")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return _Request(method=method, path=path, headers=headers, body=body)


def _encode_response(status: int, payload: Dict[str, object],
                     keep_alive: bool,
                     extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    body = json.dumps(payload, default=str).encode()
    headers = {
        **_JSON_HEADERS,
        "Content-Length": str(len(body)),
        "Connection": "keep-alive" if keep_alive else "close",
        **(extra_headers or {}),
    }
    head = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    reason = _REASONS.get(status, "Unknown")
    return f"HTTP/1.1 {status} {reason}\r\n{head}\r\n".encode() + body


# ---------------------------------------------------------------------------
# The server
# ---------------------------------------------------------------------------


def _result_json(result: QueryResult) -> Dict[str, object]:
    counters = result.counters
    return {
        "kernel": result.kernel,
        "dataset": result.dataset,
        "backend": result.backend,
        "resolved_class": result.resolved_class,
        "ordering": result.ordering,
        "value": result.value,
        "exact": result.exact,
        "seconds": result.seconds,
        "wall_seconds": result.wall_seconds,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "counters": {
            "set_ops": counters.set_ops,
            "point_ops": counters.point_ops,
            "sketch_builds": counters.sketch_builds,
            "memory_traffic": counters.memory_traffic,
        },
        "cell": result.cell,
    }


class MiningHTTPServer:
    """The serving tier: one session, many HTTP clients.

    Create, then :meth:`start` inside a running event loop (or use
    :func:`running_server` / :func:`serve_http`, which own the loop).
    The server never owns the session — callers create and close it —
    but it does own the job store, the job queue, and the single-thread
    session executor.
    """

    def __init__(self, session: MiningSession, *,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 20,
                 max_pending_jobs: int = 8,
                 job_root: Optional[str] = None) -> None:
        self.session = session
        self.host = host
        self.port = port
        self.admission = AdmissionControl(max_inflight)
        self.max_pending_jobs = max(1, max_pending_jobs)
        self.store = JobStore(job_root)
        self.started_at: Optional[float] = None
        self.requests_served = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._session_executor: Optional[ThreadPoolExecutor] = None
        self._job_queue: Optional[asyncio.Queue] = None
        self._job_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: set = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        # One thread: the session (cache, counters, pool bookkeeping) is
        # not thread-safe, so every piece of session work serializes here.
        self._session_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gms-session"
        )
        self._job_queue = asyncio.Queue()
        self._job_task = asyncio.ensure_future(self._job_worker())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections would otherwise outlive the loop
        # and die noisily when it closes.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._job_task is not None:
            self._job_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._job_task
            self._job_task = None
        if self._session_executor is not None:
            self._session_executor.shutdown(wait=True)
            self._session_executor = None

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    def _on_session(self, fn):
        """Run *fn* on the session thread; await the result."""
        return self._loop.run_in_executor(self._session_executor, fn)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HttpError as exc:
                    writer.write(_encode_response(
                        exc.status, {"error": exc.message}, False,
                        exc.headers,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive
                try:
                    status, payload, extra = await self._dispatch(request)
                except HttpError as exc:
                    status, payload, extra = (
                        exc.status, {"error": exc.message}, exc.headers
                    )
                except Exception as exc:  # request fails, server survives
                    logger.debug("request %s %s failed", request.method,
                                 request.path, exc_info=True)
                    status, payload, extra = (
                        500, {"error": f"{type(exc).__name__}: {exc}"}, {}
                    )
                self.requests_served += 1
                writer.write(_encode_response(
                    status, payload, keep_alive, extra
                ))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError,
                BrokenPipeError, asyncio.CancelledError):
            pass  # client went away mid-request, or the server is stopping
        finally:
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self, request: _Request
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/healthz":
            self._require_method(method, "GET")
            return 200, self._healthz(), {}
        if path == "/stats":
            self._require_method(method, "GET")
            return 200, await self._stats(), {}
        if path == "/query":
            self._require_method(method, "POST")
            return await self._handle_query(request, None)
        if path == "/suite":
            self._require_method(method, "POST")
            return await self._handle_suite(request)
        if path == "/jobs":
            self._require_method(method, "GET")
            return 200, {"jobs": [j.summary() for j in self.store.jobs()]}, {}
        if path.startswith("/jobs/"):
            self._require_method(method, "GET")
            job = self.store.get(path[len("/jobs/"):])
            if job is None:
                raise HttpError(404, "unknown job id")
            return 200, job.to_json(), {}
        raise HttpError(404, f"unknown path {path!r}")

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(405, f"method {method} not allowed; "
                                 f"use {expected}",
                            headers={"Allow": expected})

    # -- endpoint: /healthz, /stats -----------------------------------------

    def _healthz(self) -> Dict[str, object]:
        if self.session.closed:
            raise HttpError(503, "session is closed")
        return {
            "status": "ok",
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "workers": self.session.workers,
            "graphs": self.session.graphs(),
        }

    async def _stats(self) -> Dict[str, object]:
        session_stats = await self._on_session(self.session.stats)
        return {
            "session": session_stats,
            "admission": self.admission.stats(),
            "jobs": {
                "counts": self.store.counts(),
                "queued": (self._job_queue.qsize()
                           if self._job_queue else 0),
            },
            "requests_served": self.requests_served,
        }

    # -- endpoint: /query ---------------------------------------------------

    def _compile_query(self, body: Dict[str, object]):
        """Body → (query, compiled variants or None); a bad key or value
        is a 400."""
        if not body.get("kernel"):
            raise HttpError(400, "query body needs a 'kernel' field")
        if "dataset" not in body:
            raise HttpError(400, "query body needs a 'dataset' field")
        dataset = str(body["dataset"])
        if dataset not in DATASETS and dataset not in self.session.graphs():
            raise HttpError(
                404, f"unknown dataset {dataset!r}; "
                     f"known: {sorted(DATASETS)}"
            )
        raw_variants = body.pop("variants", None)
        if raw_variants is not None and not (
                isinstance(raw_variants, list)
                and all(isinstance(v, dict) for v in raw_variants)):
            raise HttpError(400, "'variants' must be a list of objects")
        try:
            query = self.session.query(str(body["kernel"])).with_overrides(
                body)
            # Every variant is parsed here, once and before any runs, so a
            # bad one fails the batch with a 400 rather than mid-run.
            variants = (None if raw_variants is None else
                        [query.with_overrides(v) for v in raw_variants])
        except (KeyError, ValueError) as exc:
            raise HttpError(400, f"invalid query: {exc}")
        return query, variants

    async def _handle_query(
        self, request: _Request, _tenant: object
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        # The second parameter is ignored (``_dispatch`` passes None): the
        # service benchmark's server wraps this handler as
        # ``(request, tenant)``, so it stays until that wrapper goes.
        query, variants = self._compile_query(request.json())
        if not self.admission.try_acquire():
            raise HttpError(
                429, "server is at capacity; retry later",
                headers={"Retry-After": str(self.admission.retry_after())},
            )
        t0 = time.perf_counter()
        try:
            if variants is not None:
                results = await self._on_session(
                    lambda: query.run_many(variants)
                )
                payload: Dict[str, object] = {
                    "results": [_result_json(r) for r in results]
                }
            else:
                result = await self._on_session(query.run)
                payload = {"result": _result_json(result)}
        finally:
            self.admission.release(time.perf_counter() - t0)
        return 200, payload, {}

    # -- endpoint: /suite + background jobs ---------------------------------

    async def _handle_suite(
        self, request: _Request
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        body = request.json()
        smoke = body.pop("smoke", False)
        base = ExperimentPlan.smoke() if smoke else ExperimentPlan()
        try:
            plan = replace(
                base, cache_budget_bytes=self.session.cache_budget_bytes,
            ).with_knobs(body)
        except (KeyError, ValueError) as exc:
            raise HttpError(400, f"invalid suite plan: {exc}")
        for dataset in plan.datasets:
            if dataset not in DATASETS and (
                    dataset not in self.session.graphs()):
                raise HttpError(
                    400, f"unknown dataset {dataset!r}; "
                         f"known: {sorted(DATASETS)}"
                )
        if self._job_queue.qsize() >= self.max_pending_jobs:
            raise HttpError(
                429, f"job backlog is full ({self.max_pending_jobs} "
                     f"pending); retry later",
                headers={"Retry-After": str(
                    max(self.admission.retry_after(), 5)
                )},
            )
        cells_per_dataset = len(expand_cells(plan))
        job = self.store.create(
            plan=asdict(plan),
            cells_total=cells_per_dataset * len(plan.datasets),
            datasets_total=len(plan.datasets),
        )
        await self._job_queue.put((job, plan))
        return 202, {"job": job.id, "state": job.state,
                     "poll": f"/jobs/{job.id}"}, {}

    async def _job_worker(self) -> None:
        """Drain the job queue, one job at a time, forever."""
        while True:
            job, plan = await self._job_queue.get()
            try:
                await self._execute_job(job, plan)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                logger.debug("job %s failed", job.id, exc_info=True)
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished_at = time.time()
                self.store.persist(job)
            finally:
                self._job_queue.task_done()

    async def _execute_job(self, job, plan: ExperimentPlan) -> None:
        job.state = "running"
        job.started_at = time.time()
        self.store.persist(job)
        for dataset in plan.datasets:
            job.progress["current_dataset"] = dataset
            self.store.persist(job)
            # One dataset per executor hop: between datasets the session
            # thread frees up, so admitted queries interleave with a long
            # sweep instead of waiting for the whole job.
            sub_plan = replace(plan, datasets=(dataset,))
            payload = (await self._on_session(
                lambda p=sub_plan: self.session.run_plan(
                    p, verbose=False, cache_budget_bytes=p.cache_budget_bytes,
                )
            ))[0]
            path = self.store.write_artifact(job, dataset, payload)
            mismatches = _exact_mismatches(payload)
            job.exact_mismatches += len(mismatches)
            job.artifacts.append(path)
            job.progress["datasets_done"] += 1
            job.progress["cells_done"] += len(payload["cells"])
            job.progress["datasets"].append({
                "dataset": dataset,
                "cells": len(payload["cells"]),
                "measured_seconds": payload["execution"]["measured_seconds"],
                "exact_mismatches": len(mismatches),
            })
        job.progress["current_dataset"] = None
        job.state = "done"
        job.finished_at = time.time()
        self.store.persist(job)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def running_server(session: Optional[MiningSession] = None,
                   **server_kwargs):
    """A :class:`MiningHTTPServer` running on a background event loop.

    The process-internal twin of ``python -m repro serve --http`` —
    tests and the serving benchmark use it to stand a real socket server
    up (and tear it down) inside one process.  With ``session=None`` a
    private ``workers=1`` session is created and closed on exit.
    """
    own_session = session is None
    if own_session:
        session = MiningSession()
    server = MiningHTTPServer(session, **server_kwargs)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    startup_error: List[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        # Not a swallow: the exception is stored and re-raised to the
        # caller once the startup handshake completes.
        except BaseException as exc:  # gms: ignore[GMS004]
            startup_error.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="gms-http", daemon=True)
    thread.start()
    started.wait(timeout=30)
    if startup_error:
        loop.close()
        if own_session:
            session.close()
        raise startup_error[0]
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        if own_session:
            session.close()


def serve_http(ns, session: MiningSession) -> int:
    """``python -m repro serve --http PORT`` — run until interrupted.

    *ns* is the parsed ``serve`` namespace (see
    :func:`repro.platform.serve.build_serve_parser`) and *session* the
    session ``serve`` built from it, exactly like the REPL's.  SIGTERM
    and Ctrl-C both stop the server and return, so the caller closes the
    session and the resident pool's workers exit with the server.
    """
    server = MiningHTTPServer(
        session, host=ns.host, port=ns.http,
        max_inflight=ns.max_inflight,
        max_pending_jobs=ns.max_pending_jobs, job_root=ns.job_root,
    )

    async def _main() -> None:
        await server.start()
        print(f"serving http on {server.host}:{server.port} "
              f"(workers={session.workers}, "
              f"jobs under {server.store.root})", flush=True)
        serving = asyncio.ensure_future(server.serve_forever())
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, serving.cancel)
        try:
            await asyncio.wait([serving])
            if not serving.cancelled():
                serving.result()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("interrupted; shutting down", flush=True)
    return 0
