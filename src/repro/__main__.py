"""Command-line entry point: ``python -m repro <command> ...``.

The C++ GMS platform ships one benchmark binary per algorithm; this module
is the Python equivalent — a single driver exposing the toolchain stages
(load → representation → preprocess → kernel → metrics) over the dataset
registry, the set-class registry, and the ordering registry.

Commands
--------
``datasets``            list the Table 7 stand-in registry
``stats <dataset>``     print the Table 7 row of one dataset
``bk <dataset>``        maximal clique listing (variant/set/ordering flags)
``kclique <dataset>``   k-clique counting
``approx <dataset>``    sketch-based approximate counting (ProbGraph workload)
``similarity <dataset>``link-prediction effectiveness of every measure
``color <dataset>``     graph coloring (JP priorities / Johansson)
``budget-sweep``        CLI-driven sketch-budget sweep → results/ artifact
``suite``               declarative kernel × backend × ordering experiment
                        suite (``--smoke`` for the tiny CI matrix;
                        ``--workers N`` runs the cells on a process
                        pool) →
                        ``results/suite_<dataset>.json``
``suite-diff``          compare two suite artifacts up to timing fields
                        (the parallel-vs-sequential determinism check)
``serve``               session REPL: one long-lived ``MiningSession``
                        (shared materialization cache, resident
                        ``--workers N`` pool) answers ``query``/``suite``
                        lines from stdin — repeated queries are warm;
                        ``--http PORT`` serves the same session over
                        asyncio HTTP/JSON instead (``POST /query``,
                        ``POST /suite`` jobs, ``GET /jobs/<id>``,
                        ``GET /stats``) with admission control and
                        per-tenant quotas
``aggregate``           merge suite + budget-sweep artifacts into
                        ``results/aggregate.json`` (per-backend
                        speed-vs-accuracy summaries + measured-vs-modeled
                        parallel speedups)
``lint``                AST-based invariant analyzer (``repro.analysis``):
                        GMS001 set-algebra purity, GMS002 counter
                        discipline, GMS003 resource lifecycle, GMS004
                        silent suppression, GMS005 determinism;
                        ``--format json`` emits the ``gms-lint/v1``
                        artifact the CI gate diffs

Piping any command into a reader that stops early (``... | head``)
exits with status 1 and no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.registry import get_set_class, set_class_names
from .graph import DATASETS, load_dataset, summarize
from .learning import evaluate_scheme, known_measures
from .mining import (
    BK_VARIANTS,
    approx_four_clique_count,
    approx_triangle_count,
    kclique_count,
    run_bk_variant,
    sketch_pivot_bron_kerbosch,
)
from .optimization import johansson, jones_plassmann, verify_coloring
from .platform import (
    add_sketch_budget_args,
    resolve_set_class,
    simulated_parallel_seconds,
)
from .preprocess.ordering import ORDERINGS
from .runtime import algorithmic_throughput


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GraphMineSuite reproduction driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset registry")

    p = sub.add_parser("stats", help="Table 7 row of one dataset")
    p.add_argument("dataset")

    p = sub.add_parser("bk", help="maximal clique listing")
    p.add_argument("dataset")
    p.add_argument("--variant", default="BK-GMS-ADG", choices=BK_VARIANTS)
    p.add_argument("--set-class", default="bitset",
                   choices=set_class_names())
    p.add_argument("--threads", type=int, default=16)

    p = sub.add_parser("kclique", help="k-clique counting")
    p.add_argument("dataset")
    p.add_argument("-k", type=int, default=4)
    p.add_argument("--ordering", default="ADG", choices=sorted(ORDERINGS))
    p.add_argument("--parallel", default="edge", choices=["node", "edge"])

    p = sub.add_parser("approx", help="sketch-based approximate counting")
    p.add_argument("dataset")
    p.add_argument("--kernel", default="tc", choices=["tc", "4clique", "bk"])
    p.add_argument("--set-class", default="bloom",
                   choices=set_class_names())
    p.add_argument("--reconcile", action="store_true",
                   help="4clique: exact candidate sets at every level, "
                        "estimates only at the top (counting) level")
    add_sketch_budget_args(p)

    p = sub.add_parser("similarity", help="link-prediction effectiveness")
    p.add_argument("dataset")
    p.add_argument("--fraction", type=float, default=0.1)

    p = sub.add_parser(
        "budget-sweep",
        help="CLI-driven sketch-budget sweep (flags of the shared "
             "benchmark parser; writes results/budget_sweep_<dataset>.json)",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)

    p = sub.add_parser(
        "suite",
        help="declarative kernel × backend × ordering experiment suite "
             "(--smoke for the tiny CI matrix; writes "
             "results/suite_<dataset>.json)",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)

    p = sub.add_parser(
        "suite-diff",
        help="compare two suite artifacts up to timing fields "
             "(parallel-vs-sequential determinism check)",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)

    p = sub.add_parser(
        "aggregate",
        help="merge suite/budget-sweep artifacts into results/aggregate.json",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)

    p = sub.add_parser(
        "lint",
        help="AST-based invariant analyzer: set-algebra purity, counter "
             "discipline, resource lifecycle, silent suppression, "
             "determinism (gms-lint/v1 artifact)",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)

    p = sub.add_parser(
        "serve",
        help="session REPL: serve repeated query/suite lines from one "
             "long-lived MiningSession (resident --workers N pool); "
             "--http PORT serves HTTP/JSON instead",
        add_help=False,
    )
    p.add_argument("rest", nargs=argparse.REMAINDER)

    p = sub.add_parser("color", help="graph coloring")
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
    if argv and argv[0] == "budget-sweep":
        # The sweep owns the full shared benchmark parser (dataset, budgets,
        # ordering, …), so its flags are forwarded wholesale instead of
        # being re-declared on this driver's subparser.
        from .platform.budget_sweep import main as budget_sweep_main

        return budget_sweep_main(argv[1:])
    if argv and argv[0] == "suite":
        # Same forwarding pattern: the suite owns its own parser (plan
        # selection + the shared sketch-budget and parallel flags).
        from .platform.suite import main as suite_main

        return suite_main(argv[1:])
    if argv and argv[0] == "suite-diff":
        from .platform.runner import diff_main

        return diff_main(argv[1:])
    if argv and argv[0] == "aggregate":
        from .platform.aggregate import main as aggregate_main

        return aggregate_main(argv[1:])
    if argv and argv[0] == "serve":
        from .platform.serve import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "lint":
        # The analyzer is stdlib-only and owns its full parser (paths,
        # rule selection, baseline flags) — forwarded like the suite.
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)

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
        res = run_bk_variant(graph, args.variant,
                             set_cls=get_set_class(args.set_class))
        par = simulated_parallel_seconds(res, args.threads)
        print(f"{res.variant}: {res.num_cliques} maximal cliques "
              f"(max size {res.max_clique_size})")
        print(f"  sequential {1000 * res.total_seconds:.1f} ms "
              f"({1000 * res.reorder_seconds:.2f} ms reorder), "
              f"simulated {args.threads}-thread {1000 * par:.2f} ms")
        print(f"  throughput {algorithmic_throughput(res.num_cliques, par):,.0f} cliques/s")
        return 0

    if args.command == "kclique":
        res = kclique_count(graph, args.k, args.ordering, args.parallel)
        print(f"{res.variant}: {res.count} {args.k}-cliques in "
              f"{1000 * res.total_seconds:.1f} ms "
              f"({res.throughput():,.0f}/s)")
        return 0

    if args.command == "approx":
        try:
            set_cls = resolve_set_class(
                args.set_class, bloom_bits=args.bloom_bits, kmv_k=args.kmv_k,
                bloom_shared_bits=args.bloom_shared_bits,
                num_sets=graph.num_nodes,
                bloom_fpr=args.bloom_fpr,
                avg_set_size=(
                    2.0 * graph.num_edges / graph.num_nodes
                    if graph.num_nodes else 0.0
                ),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.kernel == "bk":
            bk = sketch_pivot_bron_kerbosch(graph, set_cls)
            print(f"bk-sketch-pivot [{bk.pivot_class}]: "
                  f"{bk.num_cliques} maximal cliques "
                  f"(exact {bk.exact_num_cliques}, "
                  f"identical: {bk.identical})")
            print(f"  recursion {bk.estimate_calls} calls "
                  f"(exact pivots {bk.exact_calls}, "
                  f"{bk.call_overhead:.2f}x), "
                  f"{1000 * bk.estimate_seconds:.1f} ms vs "
                  f"{1000 * bk.exact_seconds:.1f} ms")
            return 0 if bk.identical else 1
        if args.kernel == "tc":
            res = approx_triangle_count(graph, set_cls)
            what = "triangles"
        else:
            res = approx_four_clique_count(graph, set_cls,
                                           reconcile=args.reconcile)
            what = "4-cliques"
        print(f"{res.kernel} [{res.set_class}]: estimate {res.estimate:,} "
              f"{what} (exact {res.exact:,}, "
              f"rel. error {100 * res.relative_error:.2f}%)")
        print(f"  estimator {1000 * res.estimate_seconds:.1f} ms, "
              f"exact baseline {1000 * res.exact_seconds:.1f} ms "
              f"({res.speedup:.2f}x)")
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
