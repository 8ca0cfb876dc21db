"""Persistent run store for HTTP-served suite jobs.

``POST /suite`` on the HTTP front door (:mod:`repro.platform.http`)
answers with a job id instead of blocking: long-running
:class:`~repro.platform.suite.ExperimentPlan` sweeps execute in the
background against the resident session, and clients poll
``GET /jobs/<id>`` for per-cell progress.  This module is the store
behind those ids — modeled on the api/worker/run-store split of service
codebases: the API tier records the request, a worker advances it, and
the store is the durable source of truth both read.

Durability
----------
Every job owns a directory ``<root>/<job-id>/`` (default
``results/jobs/``) holding:

* ``job.json`` — the ``gms-job/v1`` record: plan, tenant, state,
  timestamps, progress, artifact paths, error;
* ``suite_<dataset>.json`` — one finished ``gms-suite/v3`` artifact per
  dataset, written *as each dataset completes* (not at job end), byte-
  compatible with the CLI's ``results/suite_<dataset>.json`` and
  therefore ``suite-diff``-comparable against it.

A restarted server re-reads the root, so answers survive restarts: a
finished job keeps answering ``done`` with its artifacts forever; a job
that was mid-flight when the process died reports ``interrupted``
(its partial artifacts remain readable) instead of vanishing.

The store is thread-safe (the HTTP event loop and the job worker touch
it from different threads) and writes ``job.json`` atomically
(tmp + rename) so a crash mid-persist never leaves a half-written
record shadowing a good one.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

__all__ = ["JOB_SCHEMA", "Job", "JobStore", "default_job_root"]

#: Schema identifier of the persisted ``job.json`` records.
JOB_SCHEMA = "gms-job/v1"

#: Terminal states — a job in one of these never changes again.
TERMINAL_STATES = ("done", "failed", "interrupted")

_ID_PATTERN = re.compile(r"^job-(\d{6,})$")


def default_job_root() -> str:
    """``<ARTIFACT_DIR>/jobs`` — resolved late so test monkeypatching of
    :data:`repro.platform.bench.ARTIFACT_DIR` is honored."""
    from . import bench

    return os.path.join(bench.ARTIFACT_DIR, "jobs")


@dataclass
class Job:
    """One submitted suite run, from acceptance to terminal state.

    ``progress`` carries the polling payload: total vs completed cells
    (cell counts come from :func:`~repro.platform.suite.expand_cells`,
    completion from each dataset's finished payload), the dataset
    currently executing, and a per-dataset summary distilled from the
    artifact's ``execution`` block as each dataset lands.
    """

    id: str
    tenant: str
    plan: Dict[str, object]
    state: str = "pending"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    progress: Dict[str, object] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)
    exact_mismatches: int = 0
    error: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        record = asdict(self)
        record["schema"] = JOB_SCHEMA
        return record

    def summary(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "state": self.state,
            "tenant": self.tenant,
            "submitted_at": self.submitted_at,
            "cells_done": self.progress.get("cells_done", 0),
            "cells_total": self.progress.get("cells_total", 0),
        }


class JobStore:
    """Durable job records under one root directory.

    ``get`` serves from memory; memory is hydrated from disk once at
    construction, which is the restart-survival path.  All mutation goes
    through :meth:`persist`, so the on-disk record never lags a state a
    client has already observed by more than one transition.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_job_root()
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._next_id = 1
        self._hydrate()

    # -- construction --------------------------------------------------------

    def _hydrate(self) -> None:
        """Load persisted records; mark interrupted runs as such.

        A record whose state is non-terminal belonged to a dead server —
        its worker cannot still be advancing it — so it is re-persisted
        as ``interrupted`` rather than left claiming progress forever.
        """
        if not os.path.isdir(self.root):
            return
        for entry in sorted(os.listdir(self.root)):
            match = _ID_PATTERN.match(entry)
            record_path = os.path.join(self.root, entry, "job.json")
            if not match or not os.path.isfile(record_path):
                continue
            try:
                with open(record_path) as handle:
                    record = json.load(handle)
            except (OSError, ValueError):
                continue
            record.pop("schema", None)
            job = Job(**record)
            if job.state not in TERMINAL_STATES:
                job.state = "interrupted"
                job.error = job.error or (
                    "server restarted while the job was in flight"
                )
                job.finished_at = job.finished_at or time.time()
                self._persist_locked(job)
            self._jobs[job.id] = job
            self._next_id = max(self._next_id, int(match.group(1)) + 1)

    # -- API -----------------------------------------------------------------

    def create(self, plan: Dict[str, object], tenant: str,
               cells_total: int, datasets_total: int) -> Job:
        """Accept a run: allocate an id, persist the pending record."""
        with self._lock:
            job = Job(
                id=f"job-{self._next_id:06d}",
                tenant=tenant,
                plan=plan,
                submitted_at=time.time(),
                progress={
                    "datasets_total": datasets_total,
                    "datasets_done": 0,
                    "cells_total": cells_total,
                    "cells_done": 0,
                    "current_dataset": None,
                    "datasets": [],
                },
            )
            self._next_id += 1
            self._jobs[job.id] = job
            self._persist_locked(job)
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.id)

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def job_dir(self, job: Job) -> str:
        return os.path.join(self.root, job.id)

    def persist(self, job: Job) -> None:
        """Write the job record atomically (tmp + rename)."""
        with self._lock:
            self._persist_locked(job)

    def _persist_locked(self, job: Job) -> None:
        directory = os.path.join(self.root, job.id)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "job.json")
        staging = path + ".tmp"
        with open(staging, "w") as handle:
            json.dump(job.to_json(), handle, indent=2, default=str)
        os.replace(staging, path)

    def write_artifact(self, job: Job, dataset: str,
                       payload: Dict[str, object]) -> str:
        """Persist one dataset's finished ``gms-suite/v3`` payload.

        Same layout as the CLI's ``results/suite_<dataset>.json`` — the
        file is directly consumable by ``python -m repro suite-diff``.
        """
        directory = self.job_dir(job)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"suite_{dataset}.json")
        staging = path + ".tmp"
        with open(staging, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
        os.replace(staging, path)
        return path
