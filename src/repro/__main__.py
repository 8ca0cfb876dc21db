"""Command-line entry point: ``python -m repro <command> ...``.

The C++ GMS platform ships one benchmark binary per algorithm; this module
is the Python equivalent — a single driver exposing the toolchain stages
(load → representation → preprocess → kernel → metrics) over the dataset
registry, the set-class registry, and the ordering registry.

Commands
--------
``datasets``            list the Table 7 stand-in registry
``stats <dataset>``     print the Table 7 row of one dataset
``bk <dataset>``        maximal clique listing (variant/set-class flags)
``kclique <dataset>``   k-clique counting
``similarity <dataset>``link-prediction effectiveness of every measure
``color <dataset>``     graph coloring (JP priorities / Johansson)
``suite``               declarative kernel × backend × ordering experiment
                        suite (``--smoke`` for the tiny CI matrix;
                        ``--workers N`` runs the cells on a process
                        pool) →
                        ``results/suite_<dataset>.json``; a sketched
                        backend's cells are the ProbGraph estimates,
                        next to the ``sorted`` reference and their
                        relative error (``suite --datasets sc-ht-mini
                        --kernels tc 4clique-rec bk --set-classes bloom
                        --bloom-bits 8``)
``suite-diff``          compare two suite artifacts up to timing fields
                        (the parallel-vs-sequential determinism check)
``serve``               session REPL: one long-lived ``MiningSession``
                        (shared materialization cache, resident
                        ``--workers N`` pool) answers ``query``/``suite``
                        lines from stdin — repeated queries are warm;
                        ``--http PORT`` serves the same session over
                        asyncio HTTP/JSON instead (``POST /query``,
                        ``POST /suite`` jobs, ``GET /jobs/<id>``,
                        ``GET /stats``) under admission control
``ladder``              synthetic scale ladder: per rung (generator,
                        parameters, seed) and exact backend, layer and
                        kernel seconds, values, ``set_ops`` and bytes →
                        ``BENCH_ladder.json``; ``--check`` reruns the
                        smallest rungs against it, ``--oracle`` runs
                        the relabelling oracle
``aggregate``           merge suite artifacts into
                        ``results/aggregate.json`` (per-backend
                        speed-vs-accuracy summaries + measured-vs-modeled
                        parallel speedups)
``lint``                AST-based invariant analyzer (``repro.analysis``):
                        GMS001 set-algebra purity, GMS002 counter
                        discipline, GMS003 resource lifecycle (shared
                        memory, executor pools), GMS004 silent
                        suppression, GMS005 determinism;
                        ``--format json`` emits the ``gms-lint/v1``
                        artifact the CI gate diffs

Every flag that sets a plan knob (``--set-class``, ``--ordering``,
``-k``, the sketch budgets, ``--workers``, ...) is an
:class:`~repro.platform.suite.ExperimentPlan` field added by
:func:`~repro.platform.suite.add_knob_flags` and parsed by
:meth:`~repro.platform.suite.ExperimentPlan.with_knobs`, so a bad value
exits 2 with the message every other surface gives.

Piping any command into a reader that stops early (``... | head``)
exits with status 1 and no traceback.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, Optional

from .graph import DATASETS, load_dataset, summarize
from .learning import evaluate_scheme, known_measures
from .mining import BK_VARIANTS, kclique_count, run_bk_variant
from .optimization import johansson, jones_plassmann, verify_coloring
from .platform import ExperimentPlan, simulated_parallel_seconds
from .platform.suite import add_knob_flags, plan_from_flags, resolve_backend
from .runtime import algorithmic_throughput

#: Commands that parse their own argv: name -> (module, entry, help).
FORWARDED = {
    "suite": (
        "repro.platform.suite", "main",
        "declarative kernel × backend × ordering experiment suite "
        "(--smoke for the tiny CI matrix; writes "
        "results/suite_<dataset>.json)",
    ),
    "suite-diff": (
        "repro.platform.runner", "diff_main",
        "compare two suite artifacts up to timing fields "
        "(parallel-vs-sequential determinism check)",
    ),
    "aggregate": (
        "repro.platform.aggregate", "main",
        "merge suite artifacts into results/aggregate.json",
    ),
    "lint": (
        "repro.analysis.cli", "main",
        "AST-based invariant analyzer: set-algebra purity, counter "
        "discipline, resource lifecycle, silent suppression, "
        "determinism (gms-lint/v1 artifact)",
    ),
    "ladder": (
        "repro.platform.ladder", "main",
        "synthetic scale ladder: layer and kernel seconds, values, "
        "set_ops and bytes per rung and exact backend "
        "(BENCH_ladder.json); --check reruns the small rungs, --oracle "
        "runs the relabelling oracle",
    ),
    "serve": (
        "repro.platform.serve", "serve_main",
        "session REPL: serve repeated query/suite lines from one "
        "long-lived MiningSession (resident --workers N pool); "
        "--http PORT serves HTTP/JSON instead",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GraphMineSuite reproduction driver",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, **kwargs) -> argparse.ArgumentParser:
        # No parser matches a flag by its prefix: a renamed or deleted
        # flag must fail, not parse as an abbreviation of another one.
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    command("datasets", help="list the dataset registry")

    p = command("stats", help="Table 7 row of one dataset")
    p.add_argument("dataset")

    p = command("bk", help="maximal clique listing")
    p.add_argument("dataset")
    p.add_argument("--variant", default="BK-GMS-ADG", choices=BK_VARIANTS)
    add_knob_flags(p, "--set-class")
    p.add_argument("--threads", type=int, default=16)
    # A kernel command's defaults are a base plan; its knob flags and the
    # errors they raise belong to its own parser.
    p.set_defaults(base=ExperimentPlan(set_classes=("bitset",)), parser=p)

    p = command("kclique", help="k-clique counting")
    p.add_argument("dataset")
    add_knob_flags(p, "-k", "--ordering")
    p.add_argument("--parallel", default="edge", choices=["node", "edge"])
    p.set_defaults(base=ExperimentPlan(orderings=("ADG",)), parser=p)

    p = command("similarity", help="link-prediction effectiveness")
    p.add_argument("dataset")
    p.add_argument("--fraction", type=float, default=0.1)

    for name, (_, _, text) in FORWARDED.items():
        command(name, help=text)

    p = command("color", help="graph coloring")
    p.add_argument("dataset")
    p.add_argument("--method", default="JP-SL",
                   choices=["JP-random", "JP-FF", "JP-LF", "JP-SL",
                            "Johansson"])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        status = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``... | head``).  As the SIGPIPE note in
        # the Python docs does, point stdout at devnull so the flush at
        # interpreter exit cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


def _run(argv: Optional[List[str]]) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in FORWARDED:
        module, entry, _ = FORWARDED[argv[0]]
        return getattr(importlib.import_module(module), entry)(argv[1:])
    args = _build_parser().parse_args(argv)
    if "base" in args:
        plan = plan_from_flags(args.parser, args, args.base)

    if args.command == "datasets":
        for name, spec in sorted(DATASETS.items()):
            print(f"{name:<22} [{spec.category}]  mirrors {spec.mirrors}: "
                  f"{spec.why}")
        return 0

    graph = load_dataset(args.dataset)

    if args.command == "stats":
        print(summarize(graph, args.dataset).row())
        return 0

    if args.command == "bk":
        res = run_bk_variant(
            graph, args.variant,
            set_cls=resolve_backend(plan, plan.set_classes[0], graph))
        par = simulated_parallel_seconds(res, args.threads)
        print(f"{res.variant}: {res.num_cliques} maximal cliques "
              f"(max size {res.max_clique_size})")
        print(f"  sequential {1000 * res.total_seconds:.1f} ms "
              f"({1000 * res.reorder_seconds:.2f} ms reorder), "
              f"modeled {args.threads}-thread {1000 * par:.2f} ms")
        print(f"  modeled throughput "
              f"{algorithmic_throughput(res.num_cliques, par):,.0f} cliques/s")
        return 0

    if args.command == "kclique":
        res = kclique_count(graph, plan.k, plan.orderings[0], args.parallel)
        print(f"{res.variant}: {res.count} {plan.k}-cliques in "
              f"{1000 * res.total_seconds:.1f} ms "
              f"({res.throughput():,.0f}/s)")
        return 0

    if args.command == "similarity":
        for measure in known_measures():
            res = evaluate_scheme(graph, measure, fraction=args.fraction)
            print(f"{measure:<24} eff {res.effectiveness:.3f} "
                  f"({res.predicted_correct}/{res.removed})")
        return 0

    if args.command == "color":
        if args.method == "Johansson":
            res = johansson(graph)
        else:
            res = jones_plassmann(graph, args.method.split("-")[1])
        ok = verify_coloring(graph, res.colors)
        print(f"{res.method}: {res.num_colors} colors in {res.rounds} "
              f"rounds (proper: {ok})")
        return 0 if ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
