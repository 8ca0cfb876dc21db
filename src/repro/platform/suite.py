"""Declarative experiment suite: dataset × ordering × backend × kernel.

This is the driver the set-centric kernel unification exists for.  All
mining kernels speak the :class:`~repro.core.interface.SetBase` algebra
over materialized :class:`~repro.graph.set_graph.SetGraph` neighborhoods,
so one :class:`ExperimentPlan` can sweep *every registered kernel under
every registered set backend* — SISA-style: a small set-centric
instruction set below, a declarative workload description above.

Building blocks
---------------
``SUITE_KERNELS``
    The kernel registry.  Each :class:`SuiteKernel` wraps one mining
    kernel behind the uniform signature ``runner(graph, set_cls,
    ordering, plan, cache) -> int | (int, extras)`` and declares whether
    the kernel consumes the vertex ordering.  User kernels join the sweep
    via :func:`register_suite_kernel` — exactly like set representations
    join via :func:`repro.core.registry.register_set_class`.

``ExperimentPlan``
    The declarative sweep description and the one record of request
    knobs: datasets, kernels, orderings, set backends, clique size,
    sketch budgets, repeats, dispatch — plus the execution knobs
    ``workers`` (process-pool size) and ``cache_budget_bytes``
    (per-process :class:`~repro.graph.set_graph.MaterializationCache` LRU
    budget).
    Every surface — the suite CLI, the fluent
    :class:`~repro.platform.session.Query`, the serve REPL, ``/query``
    and ``/suite`` — builds its plan with
    :meth:`ExperimentPlan.with_knobs` and checks it with
    :meth:`ExperimentPlan.validate`.  Budget knobs are resolved per graph
    through :func:`repro.platform.cli.resolve_set_class_for_graph`.

``MiningSession.run_plan``
    Executes a plan (:mod:`repro.platform.session`).  A sequential
    session runs cells in-process against its cache; ``workers > 1``
    shards them over the session's process pool
    (:mod:`repro.platform.runner`), producing a cell-by-cell identical
    artifact up to timing.  Per cell the suite meters wall time and the
    set-algebra software counters (:mod:`repro.core.counters`).  Exact
    backends are cross-checked against the reference backend — any
    disagreement fails the run.

Artifact schema (``results/suite_<dataset>.json``, ``gms-suite/v2``)
--------------------------------------------------------------------
One JSON object per dataset::

    {
      "schema": "gms-suite/v2",
      "dataset": str,          # registry name
      "num_nodes": int, "num_edges": int,
      "plan": {...},           # the ExperimentPlan, as parsed (includes
                               # workers / cache_budget_bytes)
      "reference_backend": "sorted",
      "materialization": {hits, misses, evictions, orderings, set_graphs,
                          oriented, resident_bytes, budget_bytes},
                               # THIS run's cache deltas (hit/miss/
                               # insertion/eviction counters since the
                               # run started; entry/byte gauges
                               # instantaneous) — a warm re-run on a
                               # long-lived session/pool shows hits
                               # without inheriting earlier runs' counts.
                               # Parallel runs: summed over the pool's
                               # per-process caches, plus "workers"
      "counters": {set_ops, point_ops, sketch_builds, memory_traffic},
                               # merge of the per-cell deltas — shard-
                               # order independent, so sequential and
                               # parallel runs agree exactly
      "execution": {           # measured vs modeled parallel runtime
        "workers": int,        # pool size (1 = sequential)
        "schedule": str,       # "sequential" | "dynamic"
        "measured_seconds": float,   # wall clock of the cell loop / pool
        "cells_seconds_total": float,# sum of warm per-cell kernel times
        "measured_speedup": float,   # cells_seconds_total / measured
        "modeled": {           # runtime/scheduler.py makespan model at
                               # this worker count, one entry per policy
          "static"|"dynamic"|"stealing": {
            "makespan_seconds": float,
            "speedup": float,  # cells_seconds_total / makespan
          }, ...
        },
      },
      "cells": [
        {
          "kernel": str,       # SUITE_KERNELS name
          "ordering": str,     # ordering name, or "-" if kernel ignores it
          "set_class": str,    # registry name from the plan
          "resolved_class": str,  # budget-resolved class actually run
          "exact": bool,       # cls.IS_EXACT
          "value": int,        # kernel output (count)
          "seconds": float,    # best-of-repeats *warm* kernel wall time
                               # (an untimed warm-up pass populates the
                               # per-process cache first; materialization
                               # cost shows up in "materialization" and
                               # the execution block, not here)
          "set_ops": int, "point_ops": int,     # software counters
          "memory_traffic": int, "sketch_builds": int,
          "extras": {...},     # per-kernel work profile:
                               #   bk        -> recursive_calls, task_costs
                               #   kclique/4clique -> task_costs
                               #   others    -> {}
                               # task_costs are timings; everything else
                               # in a cell except "seconds" is
                               # deterministic and shard-independent
          "reference": int,    # reference-backend value, same cell
          "rel_error": float,  # |value - reference| / max(reference, 1)
        }, ...
      ]
    }

``python -m repro aggregate`` consumes these artifacts (together with the
budget-sweep ones), folds the ``extras`` work profiles into per-kernel
work-distribution summaries, and tabulates measured-vs-modeled speedups
from the ``execution`` blocks.

Run ``python -m repro suite --smoke`` for the tiny CI matrix,
``python -m repro suite --smoke --workers 2`` for the same matrix through
the process pool (``python -m repro suite-diff`` checks the two artifacts
agree up to timing), or ``python -m repro suite --datasets sc-ht-mini
citations-mini --set-classes sorted bitset bloom kmv`` for a custom
sweep; see ``examples/suite_run.py`` for the library-level API.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type,
)

from ..core import counters as _counters
from ..core.bit_set import BitSet
from ..core.interface import SetBase
from ..core.registry import set_class_names
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from ..mining.bronkerbosch import bron_kerbosch
from ..mining.kclique import kclique_count
from ..mining.kcliquestar import kclique_star_count
from ..mining.triangles import (
    triangle_count_node_iterator,
    triangle_count_rank_merge,
)
from ..preprocess.ordering import ORDERINGS
from ..runtime.scheduler import SCHEDULER_POLICIES, simulate_makespan
from .bench import print_table, write_artifact
from .cli import (
    DISPATCH_MODES,
    add_dispatch_args,
    add_parallel_args,
    add_sketch_budget_args,
    resolve_set_class_for_graph,
)

__all__ = [
    "SCHEMA",
    "SuiteKernel",
    "SUITE_KERNELS",
    "register_suite_kernel",
    "ExperimentPlan",
    "ORDERING_ALIASES",
    "QUERY_ALIASES",
    "SESSION_FIELDS",
    "knob_names",
    "resolve_ordering_name",
    "expand_cells",
    "run_cell",
    "finalize_cells",
    "resolve_backend",
    "dataset_payload",
    "report_payloads",
    "main",
]

#: Artifact schema identifier, bumped on breaking layout changes.
#: v2 (over v1): per-cell ``extras`` work profiles, payload-level merged
#: ``counters``, and the ``execution`` measured-vs-modeled block.
SCHEMA = "gms-suite/v2"

#: Reference backend for cross-checking and relative error (registry name).
REFERENCE_BACKEND = "sorted"


@dataclass(frozen=True)
class SuiteKernel:
    """One kernel of the suite sweep.

    ``runner(graph, set_cls, ordering, plan, cache)`` returns the kernel's
    count under the given set representation — either a bare ``int`` or an
    ``(int, extras)`` pair, where ``extras`` is a JSON-ready work profile
    (e.g. BK's ``recursive_calls``, kClist's per-task ``task_costs``)
    folded into the cell schema.  ``uses_ordering=False`` kernels are run
    once per backend with the ordering column recorded as ``"-"``
    (re-running them per ordering would duplicate identical cells).
    """

    name: str
    runner: Callable[
        [CSRGraph, Type[SetBase], str, "ExperimentPlan", MaterializationCache],
        object,
    ]
    description: str
    uses_ordering: bool = True


def _run_tc(graph, set_cls, ordering, plan, cache):
    return triangle_count_node_iterator(graph, set_cls=set_cls, cache=cache)


def _run_tc_merge(graph, set_cls, ordering, plan, cache):
    return triangle_count_rank_merge(graph, set_cls=set_cls, cache=cache)


def _run_4clique(graph, set_cls, ordering, plan, cache):
    res = kclique_count(graph, 4, ordering, "edge", eps=plan.eps,
                        set_cls=set_cls, cache=cache)
    return res.count, {"task_costs": list(res.task_costs)}


def _run_kclique(graph, set_cls, ordering, plan, cache):
    res = kclique_count(graph, plan.k, ordering, "node", eps=plan.eps,
                        set_cls=set_cls, cache=cache)
    return res.count, {"task_costs": list(res.task_costs)}


def _run_kstar(graph, set_cls, ordering, plan, cache):
    return kclique_star_count(graph, 3, set_cls=set_cls, cache=cache)


def _run_bk(graph, set_cls, ordering, plan, cache):
    # Approximate backends reach Bron–Kerbosch through the pivot scan
    # (sketch-pivot BK): P/X stay exact, the estimated counts only feed
    # the pivot argmax, and the enumerated clique set is provably
    # identical — so every backend, exact or sketched, lands on the same
    # maximal-clique count here.  recursive_calls *does* depend on the
    # pivot choices, but the sketches are deterministic functions of the
    # set contents, so it is still reproducible run-to-run.
    if set_cls.IS_EXACT:
        res = bron_kerbosch(graph, ordering, set_cls, eps=plan.eps,
                            cache=cache)
    else:
        res = bron_kerbosch(graph, ordering, BitSet, eps=plan.eps,
                            pivot_set_cls=set_cls, cache=cache)
    return res.num_cliques, {
        "recursive_calls": res.recursive_calls,
        "task_costs": list(res.task_costs),
    }


#: The registered suite kernels, in registration order.
SUITE_KERNELS: Dict[str, SuiteKernel] = {}


def register_suite_kernel(
    name: str,
    runner: Callable[..., object],
    description: str,
    uses_ordering: bool = True,
) -> None:
    """Register a kernel for the suite sweep (the kernel-side ``5+`` hook)."""
    SUITE_KERNELS[name] = SuiteKernel(name, runner, description, uses_ordering)


register_suite_kernel(
    "tc", _run_tc,
    "triangle count, node-iterator scheme (Figure 2's tc)",
    uses_ordering=False,
)
register_suite_kernel(
    "tc-merge", _run_tc_merge,
    "triangle count, rank-merge (forward) scheme over the degree order",
    uses_ordering=False,
)
register_suite_kernel(
    "4clique", _run_4clique,
    "4-clique count, edge-parallel kClist over the oriented SetGraph",
)
register_suite_kernel(
    "kclique", _run_kclique,
    "k-clique count (plan.k), node-parallel kClist",
)
register_suite_kernel(
    "kstar", _run_kstar,
    "3-clique-star count via set intersections and differences",
    uses_ordering=False,
)
register_suite_kernel(
    "bk", _run_bk,
    "maximal clique count; approximate backends route to the pivot scan",
)


#: Friendly ordering names the parser accepts next to the registry
#: mnemonics.
ORDERING_ALIASES: Dict[str, str] = {
    "degeneracy": "DGR", "approx-degeneracy": "ADG", "degree": "DEG",
    "triangle": "TRI", "identity": "ID", "random": "RANDOM",
}

#: Query keys: each names one value of a plan field.  Every surface
#: accepts them next to the plan's own field names.
QUERY_ALIASES: Dict[str, str] = {
    "kernel": "kernels", "dataset": "datasets", "backend": "set_classes",
    "ordering": "orderings", "fpr": "bloom_fpr", "bits": "bloom_bits",
    "shared_bits": "bloom_shared_bits",
}

#: Plan fields a session fixes when it opens.  Requests cannot set them;
#: only the suite CLI, which opens its own session, does.
SESSION_FIELDS = ("workers",)


def resolve_ordering_name(name: str) -> str:
    """Map an ordering alias or registry mnemonic to the registry name."""
    resolved = ORDERING_ALIASES.get(name.lower(), name)
    if resolved not in ORDERINGS:
        known = sorted(ORDERINGS) + sorted(ORDERING_ALIASES)
        raise KeyError(f"unknown ordering {name!r}; known: {known}")
    return resolved


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative sweep description: what to run, under what budgets.

    The one record of request knobs: :meth:`with_knobs` is the parser
    every surface shares and :meth:`validate` the one check.  Empty
    ``kernels``/``set_classes``/``orderings`` mean *everything
    registered* at run time, so plans stay valid as kernels and backends
    are added.  ``workers``/``cache_budget_bytes`` select the execution
    mode without changing the sweep (the cell payloads are identical up
    to timing).  See the module docstring for the emitted artifact
    schema.
    """

    datasets: Tuple[str, ...] = ("sc-ht-mini",)
    kernels: Tuple[str, ...] = ()
    set_classes: Tuple[str, ...] = ()
    orderings: Tuple[str, ...] = ("DGR", "ADG")
    k: int = 4
    eps: float = 0.1
    repeats: int = 1
    bloom_bits: int = 0
    kmv_k: int = 0
    bloom_shared_bits: int = 0
    bloom_fpr: float = 0.0
    workers: int = 1
    cache_budget_bytes: int = 0
    # Set-op dispatch: "static" keeps each backend's own kernels,
    # "adaptive" swaps exact backends for the density-adaptive dispatcher
    # (the reference backend stays static so the cross-check pins the
    # adaptive results against the untouched path).
    dispatch: str = "static"

    def with_knobs(self, knobs: Mapping[str, object], *,
                   session: bool = False) -> "ExperimentPlan":
        """This plan with *knobs* applied — the parser of every surface.

        Keys are field names or :data:`QUERY_ALIASES`.  List fields take
        a list and aliases one value; every value is coerced to its
        field's type, and ordering aliases resolve to registry names.
        :data:`SESSION_FIELDS` are accepted only with ``session=True``.
        Unknown keys and registry names raise ``KeyError``, bad values
        ``ValueError``; the result is :meth:`validate`-checked.
        """
        unknown = sorted(
            key for key in knobs
            if QUERY_ALIASES.get(key, key) not in _FIELD_TYPES
            or (key in SESSION_FIELDS and not session))
        if unknown:
            raise KeyError(f"unknown query override(s) {unknown}; "
                           f"known: {knob_names(session=session)}")
        changes: Dict[str, object] = {}
        for key, value in knobs.items():
            name = QUERY_ALIASES.get(key, key)
            kind = _FIELD_TYPES[name]
            if kind is tuple:
                if key in QUERY_ALIASES:
                    value = [value]
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{key!r} takes a list, got {value!r}")
                value = tuple(
                    resolve_ordering_name(str(v)) if name == "orderings"
                    else str(v) for v in value
                )
            else:
                try:
                    value = kind(value)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{key!r} must be {kind.__name__}, got {value!r}"
                    ) from None
            changes[name] = value
        return replace(self, **changes).validate()

    def validate(self) -> "ExperimentPlan":
        """Check every knob against the live registries; return the plan.

        Dataset names are not checked: a session may hold graphs of its
        own.  Unknown names raise ``KeyError``, bad values ``ValueError``.
        """
        self.resolved_kernels()
        self.resolved_orderings()
        known = set_class_names()
        unknown = [n for n in self.set_classes if n not in known]
        if unknown:
            raise KeyError(f"unknown set classes {unknown}; known: {known}")
        if self.dispatch not in DISPATCH_MODES:
            raise ValueError(f"unknown dispatch {self.dispatch!r}; "
                             f"known: {DISPATCH_MODES}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.cache_budget_bytes < 0:
            raise ValueError("cache_budget_bytes must be >= 0")
        return self

    def resolved_kernels(self) -> List[SuiteKernel]:
        names = self.kernels or tuple(SUITE_KERNELS)
        unknown = [n for n in names if n not in SUITE_KERNELS]
        if unknown:
            raise KeyError(
                f"unknown suite kernels {unknown}; known: {list(SUITE_KERNELS)}"
            )
        return [SUITE_KERNELS[n] for n in names]

    def resolved_set_classes(self) -> List[str]:
        names = [n for n in (self.set_classes or set_class_names())
                 if n != REFERENCE_BACKEND]
        # The reference backend always runs, and runs *first* — it anchors
        # every cell's rel_error and the exact-backend cross-check.
        return [REFERENCE_BACKEND] + names

    def resolved_orderings(self) -> List[str]:
        names = self.orderings or tuple(sorted(ORDERINGS))
        unknown = [n for n in names if n not in ORDERINGS]
        if unknown:
            raise KeyError(
                f"unknown orderings {unknown}; known: {sorted(ORDERINGS)}"
            )
        return list(names)

    def budget_key(self) -> Tuple[int, int, int, float, str]:
        """The resolution knobs that backend resolution depends on.

        Memoized backend resolution — in the session and in the pool
        workers — keys on this tuple so a class resolved under one budget
        (or dispatch mode) never serves a request made under another.
        """
        return (self.bloom_bits, self.kmv_k, self.bloom_shared_bits,
                self.bloom_fpr, self.dispatch)

    @classmethod
    def smoke(cls) -> "ExperimentPlan":
        """The tiny CI matrix: 2 backends × 2 orderings × 3 kernels."""
        return cls(
            datasets=("sc-ht-mini",),
            kernels=("tc", "4clique", "bk"),
            set_classes=("bitset", "bloom"),
            orderings=("DGR", "ADG"),
            repeats=1,
        )


#: Each plan field's type, read off its default: what the parser coerces to.
_FIELD_TYPES = {f.name: type(f.default) for f in fields(ExperimentPlan)}


def knob_names(*, session: bool = False) -> List[str]:
    """Every key :meth:`ExperimentPlan.with_knobs` accepts, sorted."""
    return sorted(
        set(QUERY_ALIASES)
        | {n for n in _FIELD_TYPES if session or n not in SESSION_FIELDS}
    )


def _cell_orderings(kernel: SuiteKernel, orderings: Sequence[str]) -> List[str]:
    return list(orderings) if kernel.uses_ordering else ["-"]


# ---------------------------------------------------------------------------
# Cell-level building blocks — shared verbatim by the sequential loop below
# and the process-pool runner (repro.platform.runner), which is what makes
# the parallel artifact cell-by-cell identical up to timing.
# ---------------------------------------------------------------------------


def expand_cells(plan: ExperimentPlan) -> List[Tuple[str, str, str]]:
    """The plan's cell list, in canonical (sequential) execution order.

    Each spec is ``(backend_name, kernel_name, ordering)``.  The parallel
    runner dispatches *this* list and re-assembles results by index, so
    the artifact's cell order never depends on completion order.
    """
    kernels = plan.resolved_kernels()
    orderings = plan.resolved_orderings()
    return [
        (backend_name, kernel.name, ordering)
        for backend_name in plan.resolved_set_classes()
        for kernel in kernels
        for ordering in _cell_orderings(kernel, orderings)
    ]


def resolve_backend(
    plan: ExperimentPlan, dataset: str, backend_name: str, graph: CSRGraph
) -> Type[SetBase]:
    """Resolve one backend name under the plan's budgets and dispatch.

    The reference backend is *pinned static* even under ``--dispatch
    adaptive``: its cells anchor every cross-check, so they must keep
    running on the untouched sorted-array path — that is what makes the
    suite's exact-backend gate a genuine adaptive-vs-static identity
    check rather than adaptive-vs-itself.
    """
    dispatch = ("static" if backend_name == REFERENCE_BACKEND
                else plan.dispatch)
    return resolve_set_class_for_graph(
        graph, backend_name,
        bloom_bits=plan.bloom_bits, kmv_k=plan.kmv_k,
        bloom_shared_bits=plan.bloom_shared_bits,
        bloom_fpr=plan.bloom_fpr, dispatch=dispatch,
    )


def _normalize_result(raw: object) -> Tuple[int, Dict[str, object]]:
    """Accept both runner shapes: bare count, or (count, extras)."""
    if isinstance(raw, tuple):
        value, extras = raw
        return value, dict(extras)
    return raw, {}


def run_cell(
    graph: CSRGraph,
    set_cls: Type[SetBase],
    kernel: SuiteKernel,
    backend_name: str,
    ordering: str,
    plan: ExperimentPlan,
    cache: MaterializationCache,
) -> Dict[str, object]:
    """Execute one cell: warm-up, then metered best-of-``plan.repeats``.

    The warm-up pass (untimed) populates the local cache so the measured
    runs meter the *kernel*, not whichever cell happened to pay the
    one-time materialization — without it, the reference backend (which
    runs first) would absorb the ordering cost and every later backend's
    speedup would be inflated.  ``reference``/``rel_error`` are filled in
    later by :func:`finalize_cells`, once the reference cells are known.
    """
    kernel.runner(graph, set_cls, ordering, plan, cache)
    best = float("inf")
    value = None
    extras: Dict[str, object] = {}
    delta = None
    for _ in range(max(1, plan.repeats)):
        before = _counters.snapshot()
        t0 = time.perf_counter()
        raw = kernel.runner(graph, set_cls, ordering, plan, cache)
        elapsed = time.perf_counter() - t0
        delta = before.delta(_counters.snapshot())
        value, extras = _normalize_result(raw)
        best = min(best, elapsed)
    return {
        "kernel": kernel.name,
        "ordering": ordering,
        "set_class": backend_name,
        "resolved_class": set_cls.__name__,
        "exact": bool(set_cls.IS_EXACT),
        "value": value,
        "seconds": best,
        "set_ops": delta.set_ops,
        "point_ops": delta.point_ops,
        "memory_traffic": delta.memory_traffic,
        "sketch_builds": delta.sketch_builds,
        "extras": extras,
    }


def finalize_cells(cells: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Fill ``reference``/``rel_error`` from the reference-backend cells.

    Runs in the parent after all shards merge, so the cross-check logic is
    one piece of code regardless of which worker computed which cell.
    """
    reference: Dict[Tuple[str, str], int] = {
        (c["kernel"], c["ordering"]): c["value"]
        for c in cells if c["set_class"] == REFERENCE_BACKEND
    }
    for cell in cells:
        ref = reference.get((cell["kernel"], cell["ordering"]), cell["value"])
        cell["reference"] = ref
        cell["rel_error"] = abs(cell["value"] - ref) / max(ref, 1)
    return cells


def _merged_cell_counters(
    cells: Sequence[Dict[str, object]]
) -> Dict[str, int]:
    """Merge the per-cell deltas — shard-order independent by construction
    (integer addition per field, the same property
    :func:`repro.core.counters.merge_snapshots` relies on)."""
    return {
        field: sum(c[field] for c in cells)
        for field in ("set_ops", "point_ops", "sketch_builds",
                      "memory_traffic")
    }


def dataset_payload(
    plan: ExperimentPlan,
    dataset: str,
    num_nodes: int,
    num_edges: int,
    cells: List[Dict[str, object]],
    materialization: Dict[str, object],
    measured_seconds: float,
    workers: int,
    schedule: str,
) -> Dict[str, object]:
    """Assemble one dataset's artifact payload (shared by both runners).

    Takes the graph *dimensions* rather than the graph: the parallel
    runner never loads the dataset in the parent (the workers already
    did), so these two ints travel back with the shard results instead.
    """
    finalize_cells(cells)
    cell_seconds = [c["seconds"] for c in cells]
    total = sum(cell_seconds)
    modeled = {}
    for policy in SCHEDULER_POLICIES:
        makespan = simulate_makespan(cell_seconds, workers, policy)
        modeled[policy] = {
            "makespan_seconds": makespan,
            "speedup": total / makespan if makespan > 0 else 0.0,
        }
    return {
        "schema": SCHEMA,
        "dataset": dataset,
        "num_nodes": num_nodes,
        "num_edges": num_edges,
        "plan": asdict(plan),
        "reference_backend": REFERENCE_BACKEND,
        "materialization": materialization,
        "counters": _merged_cell_counters(cells),
        "execution": {
            "workers": workers,
            "schedule": schedule,
            "measured_seconds": measured_seconds,
            "cells_seconds_total": total,
            "measured_speedup": (
                total / measured_seconds if measured_seconds > 0 else 0.0
            ),
            "modeled": modeled,
        },
        "cells": cells,
    }


def _print_payload(payload: Dict[str, object]) -> None:
    rows = [
        [
            c["kernel"],
            c["ordering"],
            c["set_class"],
            "yes" if c["exact"] else "no",
            f"{c['value']:,}",
            f"{100 * c['rel_error']:.2f}%",
            f"{1000 * c['seconds']:.1f} ms",
            f"{c['set_ops']:,}",
        ]
        for c in payload["cells"]
    ]
    mat = payload["materialization"]
    execution = payload["execution"]
    print_table(
        f"Experiment suite — {payload['dataset']} "
        f"(n={payload['num_nodes']:,}, m={payload['num_edges']:,}; "
        f"materializations {mat['misses']}, cache hits {mat['hits']}; "
        f"{execution['schedule']} × {execution['workers']} worker(s))",
        ["kernel", "order", "backend", "exact", "value", "rel err",
         "time", "set ops"],
        rows,
    )
    if execution["workers"] > 1:
        modeled = execution["modeled"][execution["schedule"]]
        print(
            f"parallel: measured {1000 * execution['measured_seconds']:.1f} ms"
            f" wall ({execution['measured_speedup']:.2f}x over the summed"
            f" cell times); scheduler model predicts "
            f"{1000 * modeled['makespan_seconds']:.1f} ms "
            f"({modeled['speedup']:.2f}x)"
        )


def _exact_mismatches(payload: Dict[str, object]) -> List[Dict[str, object]]:
    """Exact-backend cells disagreeing with the reference — must be empty."""
    return [
        c for c in payload["cells"] if c["exact"] and c["rel_error"] != 0.0
    ]


def build_suite_parser() -> argparse.ArgumentParser:
    """The ``python -m repro suite`` argument surface."""
    parser = argparse.ArgumentParser(
        prog="repro suite",
        description="declarative kernel × backend × ordering experiment suite",
    )
    parser.add_argument("--datasets", nargs="+", default=["sc-ht-mini"],
                        help="registry dataset names")
    parser.add_argument("--kernels", nargs="+", default=[],
                        choices=sorted(SUITE_KERNELS), metavar="KERNEL",
                        help=f"suite kernels (default: all of "
                             f"{sorted(SUITE_KERNELS)})")
    parser.add_argument("--set-classes", nargs="+", default=[],
                        metavar="BACKEND",
                        help="set backends (default: every registered name)")
    parser.add_argument("--orderings", nargs="+", default=["DGR", "ADG"],
                        choices=sorted(ORDERINGS), metavar="ORDER",
                        help="vertex orderings for ordering-aware kernels")
    parser.add_argument("--k", type=int, default=4, help="clique size k")
    parser.add_argument("--eps", type=float, default=0.1,
                        help="ADG approximation parameter")
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repeats per cell (best-of)")
    add_sketch_budget_args(parser)
    add_parallel_args(parser)
    add_dispatch_args(parser)
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny CI matrix "
                             "(2 backends × 2 orderings × 3 kernels) and "
                             "ignore the sweep-selection flags (the "
                             "execution flags --workers/"
                             "--cache-budget-bytes still apply)")
    parser.add_argument("--verbose", action="store_true")
    return parser


def plan_from_argv(argv: Optional[List[str]] = None) -> ExperimentPlan:
    """Parse ``python -m repro suite`` flags into an :class:`ExperimentPlan`."""
    return _plan_from_namespace(build_suite_parser().parse_args(argv))


def _plan_from_namespace(ns: argparse.Namespace) -> ExperimentPlan:
    knobs = {k: v for k, v in vars(ns).items()
             if k not in ("smoke", "verbose")}
    if ns.smoke:
        # The smoke matrix is fixed; the execution knobs still apply so CI
        # can run the very same matrix through the process pool.
        knobs = {k: knobs[k]
                 for k in SESSION_FIELDS + ("cache_budget_bytes", "dispatch")}
    base = ExperimentPlan.smoke() if ns.smoke else ExperimentPlan()
    return base.with_knobs(knobs, session=True)


def report_payloads(payloads: List[Dict[str, object]]) -> int:
    """Print, persist, and cross-check suite payloads; return mismatches.

    Shared by ``python -m repro suite`` and the session REPL
    (``python -m repro serve``) so both emit the identical artifact and
    apply the identical exact-backend gate.
    """
    bad = 0
    for payload in payloads:
        _print_payload(payload)
        path = write_artifact(f"suite_{payload['dataset']}", payload)
        print(f"artifact: {path}")
        mismatches = _exact_mismatches(payload)
        for cell in mismatches:
            print(
                f"EXACT-BACKEND MISMATCH: {cell['kernel']}/{cell['ordering']}"
                f"/{cell['set_class']} = {cell['value']} "
                f"!= reference {cell['reference']}",
                file=sys.stderr,
            )
        bad += len(mismatches)
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro suite`` — a thin session client."""
    from .session import MiningSession

    ns = build_suite_parser().parse_args(argv)
    plan = _plan_from_namespace(ns)
    with MiningSession.from_plan(plan, verbose=ns.verbose) as session:
        payloads = session.run_plan(plan, verbose=ns.verbose)
    return 1 if report_payloads(payloads) else 0
