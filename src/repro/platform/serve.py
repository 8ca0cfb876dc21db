"""``python -m repro serve`` — a session REPL for repeated queries.

The long-lived-service face of :class:`~repro.platform.session.
MiningSession`: one session is opened for the whole process, and every
line read from stdin is a request served against its shared
materialization cache and (for ``--workers > 1``) its resident,
pre-warmed process pool.  Repeating a query is therefore *warm* —
exactly the behavior the session exists to provide, and the thing the CI
session-smoke step exercises by piping the same ``suite --smoke`` line
twice through one serve process.

Commands (one per line; ``#`` starts a comment)::

    query <kernel> <dataset> [key=value ...]
    suite [suite CLI flags, e.g. --smoke --datasets ...]
    warm <dataset> [backend ...]
    stats
    datasets
    kernels
    help
    quit

``query`` takes the same keys as the HTTP ``POST /query`` body (the
README's query-key table: ``backend=``, ``ordering=``, ``k=``,
``bits=``, ...), parsed by the one plan parser,
:meth:`~repro.platform.suite.ExperimentPlan.with_knobs`, and prints one
result line; ``suite`` runs a full declarative plan through the session
and writes the standard ``results/suite_<dataset>`` artifacts; ``stats``
dumps the session's cache/counter/pool stats as JSON.  A malformed line
(unknown command, bad query key or value, unparsable suite flags) fails
that request, not the session.  Exit status is nonzero if any suite run
failed its exact-backend cross-check or any line failed.  Request
failures print one ``error:`` line to stderr; the full traceback is
logged at DEBUG (``--verbose`` enables it) so a long-lived session stays
diagnosable without drowning the operator.

The REPL is the single-operator face of the session.  For remote
clients, concurrent callers, tenancy and suite jobs you poll instead of
block on, ``python -m repro serve --http PORT`` serves the same session
over asyncio HTTP/JSON (:mod:`repro.platform.http`): ``POST /query``
takes the ``query`` keys, ``POST /suite`` + ``GET /jobs/<id>`` replace
``suite`` lines, and ``GET /stats`` replaces ``stats``.
"""

from __future__ import annotations

import argparse
import json
import logging
import shlex
import sys
from typing import IO, List, Optional

from ..graph import dataset_names
from .session import MiningSession
from .suite import (
    SUITE_KERNELS,
    ExperimentPlan,
    add_knob_flags,
    knob_names,
    plan_from_argv,
    plan_from_flags,
    report_payloads,
)

__all__ = ["build_serve_parser", "serve_main"]

logger = logging.getLogger(__name__)

_PROMPT = "gms> "

def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve repeated mining queries from one MiningSession",
        allow_abbrev=False,
    )
    add_knob_flags(parser, "--workers", "--cache-budget-bytes")
    parser.add_argument("--no-prompt", action="store_true",
                        help="suppress the interactive prompt (script mode)")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--http", type=int, default=None, metavar="PORT",
                        help="serve HTTP/JSON on PORT instead of the REPL "
                             "(asyncio front door: POST /query, POST /suite "
                             "jobs, GET /jobs/<id>, GET /stats, GET /healthz)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address for --http (default 127.0.0.1)")
    parser.add_argument("--max-inflight", type=int, default=20,
                        help="--http admission control: /query requests "
                             "admitted at once, in service or waiting for "
                             "the session thread, before 429s")
    parser.add_argument("--max-pending-jobs", type=int, default=8,
                        help="--http: queued suite jobs before submissions "
                             "get 429")
    parser.add_argument("--tenants", default=None, metavar="PATH",
                        help="--http: JSON file mapping tenant name -> "
                             "quotas (max_bloom_bits, max_cache_bytes, "
                             "worker_share); unknown tenants are unlimited")
    parser.add_argument("--job-root", default=None, metavar="DIR",
                        help="--http: persistent job store directory "
                             "(default results/jobs)")
    return parser


def _print_help() -> None:
    print(
        "commands:\n"
        "  query <kernel> <dataset> [key=value ...]\n"
        f"        keys: {' '.join(knob_names())}\n"
        "  suite [suite CLI flags]\n"
        "  warm <dataset> [backend ...]\n"
        "  stats | datasets | kernels | help | quit"
    )


def serve_main(argv: Optional[List[str]] = None,
               stdin: Optional[IO[str]] = None) -> int:
    """Entry point for ``python -m repro serve``.

    *stdin* overrides the input stream (tests feed an ``io.StringIO``).
    """
    parser = build_serve_parser()
    ns = parser.parse_args(argv)
    plan = plan_from_flags(parser, ns, ExperimentPlan())
    if ns.verbose:
        logging.basicConfig(level=logging.DEBUG)
    stream = stdin if stdin is not None else sys.stdin
    interactive = (
        not ns.no_prompt and stream is sys.stdin
        and getattr(stream, "isatty", lambda: False)()
    )
    failures = 0
    with MiningSession.from_plan(plan, verbose=ns.verbose) as session:
        if ns.http is not None:
            from .http import serve_http

            return serve_http(ns, session)
        print(f"session ready: {session!r} (type 'help' for commands)")
        while True:
            if interactive:
                print(_PROMPT, end="", flush=True)
            line = stream.readline()
            if not line:
                break
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                tokens = shlex.split(line)
                command, rest = tokens[0], tokens[1:]
                if command in ("quit", "exit"):
                    break
                elif command == "help":
                    _print_help()
                elif command == "datasets":
                    print(" ".join(dataset_names()))
                elif command == "kernels":
                    print(" ".join(sorted(SUITE_KERNELS)))
                elif command == "stats":
                    print(json.dumps(session.stats(), indent=2, default=str))
                elif command == "warm":
                    if not rest:
                        raise ValueError("usage: warm <dataset> [backend ...]")
                    session.warm(rest[0], backends=tuple(rest[1:]) or ("sorted",))
                    print(f"warmed {rest[0]}")
                elif command == "suite":
                    plan = plan_from_argv(rest)
                    payloads = session.run_plan(plan)
                    failures += report_payloads(payloads)
                elif command == "query":
                    if len(rest) < 2:
                        raise ValueError(
                            "usage: query <kernel> <dataset> [key=value ...]")
                    knobs = {"dataset": rest[1]}
                    for token in rest[2:]:
                        key, sep, value = token.partition("=")
                        if not sep:
                            raise ValueError(
                                f"expected key=value, got {token!r}")
                        knobs[key] = value
                    result = session.query(rest[0]).with_overrides(
                        knobs).run()
                    print(
                        f"{result.kernel} on {result.dataset} "
                        f"[{result.backend} -> {result.resolved_class}, "
                        f"{result.ordering}]: value={result.value} "
                        f"({1000 * result.wall_seconds:.1f} ms wall, "
                        f"{1000 * result.seconds:.1f} ms kernel, "
                        f"cache {result.cache_hits}h/{result.cache_misses}m)"
                    )
                else:
                    raise ValueError(
                        f"unknown command {command!r} (try 'help')"
                    )
            except SystemExit as exc:
                # argparse exits on bad suite flags (and on `--help`);
                # a long-lived session must survive both — report the
                # failure, keep serving.
                if exc.code not in (0, None):
                    failures += 1
                    print("error: could not parse suite flags "
                          f"(exit {exc.code})", file=sys.stderr)
            except Exception as exc:
                # Any request-level failure — bad input, a kernel raising,
                # artifact I/O — fails that request, never the session.
                # One line for the operator; the full traceback goes to
                # the DEBUG log so failures stay diagnosable after the
                # fact without spamming every typo.
                failures += 1
                logger.debug("request failed: %r", line, exc_info=True)
                print(f"error: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
        stats = session.stats()
        worker_note = ""
        # A pool that never started reports no worker caches (None — or
        # no key at all from an older/stubbed stats dict): the closing
        # line must survive both.
        workers = stats.get("worker_caches")
        if workers:
            worker_note = (f", worker caches {workers['hits']} hits / "
                           f"{workers['misses']} misses")
        print(
            f"session closing: {stats['queries']} query(ies), "
            f"{stats['plans']} plan(s), cache {stats['cache']['hits']} hits "
            f"/ {stats['cache']['misses']} misses{worker_note}, "
            f"pool starts {stats['pool']['starts']}"
        )
    return 1 if failures else 0
