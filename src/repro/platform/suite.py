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
    sketch budgets, repeats — plus the execution knobs
    ``workers`` (process-pool size) and ``cache_budget_bytes``
    (per-process :class:`~repro.graph.set_graph.MaterializationCache` LRU
    budget).
    Every surface — the command line, the fluent
    :class:`~repro.platform.session.Query`, the serve REPL, ``/query``
    and ``/suite`` — builds its plan with
    :meth:`ExperimentPlan.with_knobs` and checks it with
    :meth:`ExperimentPlan.validate`.  Every command's knob flags come
    from :func:`add_knob_flags`, documented once in :data:`FIELD_HELP`.
    A cell's set class is a pure function of its backend name, the sketch
    budgets and the graph's size, resolved in one place,
    :func:`resolve_backend`.

``MiningSession.run_plan``
    Executes a plan (:mod:`repro.platform.session`).  A sequential
    session runs cells in-process against its cache; ``workers > 1``
    shards them over the session's process pool
    (:mod:`repro.platform.runner`), producing a cell-by-cell identical
    artifact up to timing.  Per cell the suite meters wall time and the
    set-algebra software counters (:mod:`repro.core.counters`).  Exact
    backends are cross-checked against the reference backend — any
    disagreement fails the run.

Artifact schema (``results/suite_<dataset>.json``, ``gms-suite/v3``)
--------------------------------------------------------------------
One JSON object per dataset::

    {
      "schema": "gms-suite/v3",
      "dataset": str,          # registry name
      "num_nodes": int, "num_edges": int,
      "plan": {...},           # the ExperimentPlan, as parsed (includes
                               # workers / cache_budget_bytes)
      "reference_backend": "sorted",
      "materialization": {hits, misses, insertions, evictions,
                          build_seconds, orderings, set_graphs,
                          oriented, resident_bytes, budget_bytes},
                               # THIS run's cache deltas (hit/miss/
                               # insertion/eviction counters and the
                               # measured wall seconds of the builds
                               # since the run started; entry/byte gauges
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
        "cells_seconds_total": float,# sum of per-cell kernel times
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
          "seconds": float,    # best-of-repeats kernel wall time (the
                               # cache meters its builds and they are
                               # kept out of the cell, seconds and
                               # counters alike; materialization cost
                               # shows up in "materialization", not here)
          "set_ops": int, "point_ops": int,     # software counters
          "memory_traffic": int, "sketch_builds": int,
          "extras": {...},     # per-kernel work profile:
                               #   bk        -> recursive_calls + task profile
                               #   kclique/4clique -> task profile
                               #   others (tc, tc-merge, kstar,
                               #     4clique-rec) -> {}
                               # task profile (task_profile()):
                               #   "tasks": int  -- outer tasks: 4clique one
                               #     per DAG arc (m), kclique/bk one per
                               #     vertex (n); deterministic
                               #   "task_seconds": {"sum", "max"} -- the
                               #     summed and slowest task wall time;
                               #     4clique's are modelled: the
                               #     measured pass split by elements read
                               # task_seconds and "seconds" are timings;
                               # everything else in a cell is
                               # deterministic and shard-independent
          "reference": int,    # reference-backend value, same cell
          "rel_error": float,  # |value - reference| / max(reference, 1)
        }, ...
      ]
    }

``python -m repro aggregate`` consumes these artifacts, folds the
``extras`` work profiles into per-kernel work-distribution summaries, and
tabulates measured-vs-modeled speedups from the ``execution`` blocks.
Sketch accuracy against budget is measured only as cells:
``benchmarks/bench_probgraph_accuracy.py`` runs :func:`run_cell` per
budget class and kernel, and :func:`finalize_cells` scores each against
the ``sorted`` cell.

Run ``python -m repro suite --smoke`` for the tiny CI matrix,
``python -m repro suite --smoke --workers 2`` for the same matrix through
the process pool (``python -m repro suite-diff`` checks the two artifacts
agree up to timing), or ``python -m repro suite --datasets sc-ht-mini
citations-mini --set-classes sorted bitset bloom kmv`` for a custom
sweep; see ``examples/suite_run.py`` for the library-level API.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type,
)

from ..core.bit_set import BitSet
from ..core.interface import SetBase
from ..core.registry import set_class_names
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from ..mining.approx import kclique_count_sets
from ..mining.bronkerbosch import bron_kerbosch
from ..mining.kclique import kclique_count
from ..mining.kcliquestar import kclique_star_count
from ..mining.triangles import (
    triangle_count_node_iterator,
    triangle_count_rank_merge,
)
from ..preprocess.ordering import ORDERINGS
from ..runtime.metrics import Span
from ..runtime.scheduler import SCHEDULER_POLICIES, simulate_makespan
from .bench import print_table, write_artifact
from .cli import resolve_set_class

__all__ = [
    "SCHEMA",
    "SuiteKernel",
    "SUITE_KERNELS",
    "register_suite_kernel",
    "ExperimentPlan",
    "ORDERING_ALIASES",
    "QUERY_ALIASES",
    "SESSION_FIELDS",
    "FIELD_HELP",
    "knob_names",
    "add_knob_flags",
    "plan_from_flags",
    "resolve_ordering_name",
    "expand_cells",
    "run_cell",
    "task_profile",
    "finalize_cells",
    "resolve_backend",
    "dataset_payload",
    "report_payloads",
    "main",
]

#: Artifact schema identifier, bumped on breaking layout changes.
#: v2 (over v1): per-cell ``extras`` work profiles, payload-level merged
#: ``counters``, and the ``execution`` measured-vs-modeled block.
#: v3 (over v2): the per-task ``task_costs`` list in ``extras`` becomes
#: the :func:`task_profile` summary (``tasks`` + ``task_seconds``).
SCHEMA = "gms-suite/v3"

#: Reference backend for cross-checking and relative error (registry name).
REFERENCE_BACKEND = "sorted"


@dataclass(frozen=True)
class SuiteKernel:
    """One kernel of the suite sweep.

    ``runner(graph, set_cls, ordering, plan, cache)`` returns the kernel's
    count under the given set representation — either a bare ``int`` or an
    ``(int, extras)`` pair, where ``extras`` is a JSON-ready work profile
    (e.g. BK's ``recursive_calls``, kClist's :func:`task_profile`)
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


def task_profile(costs: Sequence[float]) -> Dict[str, object]:
    """A cell's summary of per-task wall times: what the aggregate reads.

    ``tasks`` is fixed by the graph; ``task_seconds`` holds the summed
    and the slowest task time.  Kernel results keep the full list for
    the modelled makespans.  Edge-parallel kClist's (``4clique``) task
    seconds are modelled, not clocked: the measured pass split over the
    arcs by the elements each read, so their sum is the pass.
    """
    return {
        "tasks": len(costs),
        "task_seconds": {"sum": sum(costs), "max": max(costs, default=0.0)},
    }


def _run_4clique(graph, set_cls, ordering, plan, cache):
    res = kclique_count(graph, 4, ordering, "edge", eps=plan.eps,
                        set_cls=set_cls, cache=cache)
    return res.count, task_profile(res.task_costs)


def _run_kclique(graph, set_cls, ordering, plan, cache):
    res = kclique_count(graph, plan.k, ordering, "node", eps=plan.eps,
                        set_cls=set_cls, cache=cache)
    return res.count, task_profile(res.task_costs)


def _run_4clique_rec(graph, set_cls, ordering, plan, cache):
    return kclique_count_sets(graph, 4, set_cls, ordering, reconcile=True,
                              eps=plan.eps, cache=cache)


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
        **task_profile(res.task_costs),
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
register_suite_kernel(
    "4clique-rec", _run_4clique_rec,
    "4-clique count, ProbGraph-reconciled: exact candidate sets, the "
    "backend's estimator only at the counting level",
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
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError("eps must be finite and >= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
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


#: Each plan field's command-line help: the one place a flag is documented.
FIELD_HELP: Dict[str, str] = {
    "datasets": "registry dataset name(s)",
    "kernels": "suite kernel(s) (suite default: every registered kernel)",
    "set_classes": "set representation(s), by registered name (suite "
                   "default: every registered name)",
    "orderings": "vertex ordering(s) for ordering-aware kernels: registry "
                 "mnemonics or aliases such as 'degeneracy'",
    "k": "clique size k",
    "eps": "ADG approximation parameter",
    "repeats": "timing repeats per cell (best-of)",
    "bloom_bits": "Bloom budget in bits per element "
                  "(set-class 'bloom'; 0 = class default)",
    "kmv_k": "KMV signature size (set-class 'kmv'; 0 = class default)",
    "bloom_shared_bits": "total Bloom budget in bits shared across the "
                         "whole graph: m = total/n fixed for every "
                         "neighborhood, making all pairs eligible for the "
                         "popcount estimator (0 = per-set sizing)",
    "bloom_fpr": "target false-positive rate for the Bloom probes: "
                 "auto-sizes a shared per-graph budget by inverting the "
                 "Swamidass-Baldi fill model for the average neighborhood "
                 "size (takes precedence over the explicit bit budgets; "
                 "0 = disabled)",
    "workers": "process-pool workers (1 = sequential, in-process)",
    "cache_budget_bytes": "MaterializationCache LRU budget in bytes (per "
                          "process; sized via SetGraph.storage_bytes; "
                          "0 = unbounded)",
}

#: Namespace prefix of the knob flags, so :func:`plan_from_flags` finds
#: them next to a command's own flags and positionals.
_KNOB_DEST = "knob:"


def add_knob_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add one command-line flag per plan knob in *flags*.

    A flag is ``--<field>`` (``--bloom-fpr``, ``-k``) or a query-alias
    flag (``--dataset``, ``--ordering``, and ``--set-class`` for the
    ``backend`` key).  A list field's own flag takes one or more values,
    any other flag one.  The flags carry no default and no type: a flag
    left out keeps the command's base plan, and :func:`plan_from_flags`
    hands the strings to :meth:`ExperimentPlan.with_knobs`, which parses
    and checks them as it does on every other surface.
    """
    for flag in flags:
        name = flag.lstrip("-").replace("-", "_")
        # The one spelling apart from its knob: --set-class sets backend.
        key = "backend" if name == "set_class" else name
        field = QUERY_ALIASES.get(key, key)
        many = _FIELD_TYPES[field] is tuple and key == field
        parser.add_argument(flag, dest=_KNOB_DEST + key, metavar=name.upper(),
                            nargs="+" if many else None,
                            help=FIELD_HELP[field])


def plan_from_flags(parser: argparse.ArgumentParser, ns: argparse.Namespace,
                    base: ExperimentPlan) -> ExperimentPlan:
    """*base* with the knob flags set in *ns* applied.

    A value the plan refuses exits 2 through ``parser.error``, as a value
    argparse refuses does.
    """
    knobs = {dest[len(_KNOB_DEST):]: value for dest, value in vars(ns).items()
             if dest.startswith(_KNOB_DEST) and value is not None}
    try:
        return base.with_knobs(knobs, session=True)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0]))


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
    plan: ExperimentPlan, backend_name: str, graph: CSRGraph
) -> Type[SetBase]:
    """The set class a cell of *plan* runs for *backend_name* on *graph*.

    The one resolution every cell, warm-up and command goes through: a
    pure function of the backend name, the plan's sketch budgets and the
    graph's size.  A shared Bloom budget is split as ``m = m_total / n``
    over the graph's ``n`` neighborhoods, and ``bloom_fpr`` sizes filters
    for its average degree.  The budget factories derive one class
    object per budget, so equal inputs give the same class and every
    cache keyed by class recognizes a repeated query.
    """
    n = graph.num_nodes
    return resolve_set_class(
        backend_name, bloom_bits=plan.bloom_bits, kmv_k=plan.kmv_k,
        bloom_shared_bits=plan.bloom_shared_bits, num_sets=n,
        bloom_fpr=plan.bloom_fpr,
        avg_set_size=2.0 * graph.num_edges / n if n else 0.0,
    )


def _normalize_result(raw: object) -> Tuple[int, Dict[str, object]]:
    """Accept both runner shapes: bare count, or (count, extras)."""
    if isinstance(raw, tuple):
        value, extras = raw
        return value, dict(extras)
    return raw, {}


def _kernel_pass(graph, set_cls, kernel, ordering, plan, cache):
    """One kernel pass: ``(wall seconds, counter delta, raw result)``.

    The builds the cache performed during the pass (each miss is one
    metered build) are taken out of both the seconds and the counters,
    so a pass that had to materialize meters the same kernel work as a
    warm one.
    """
    misses = cache.misses
    build_seconds, built = cache.build_seconds, cache.build_counters
    with Span() as span:
        raw = kernel.runner(graph, set_cls, ordering, plan, cache)
    elapsed, delta = span.seconds, span.counters
    if cache.misses != misses:
        elapsed -= cache.build_seconds - build_seconds
        delta = built.delta(cache.build_counters).delta(delta)
    return elapsed, delta, raw


def run_cell(
    graph: CSRGraph,
    set_cls: Type[SetBase],
    kernel: SuiteKernel,
    backend_name: str,
    ordering: str,
    plan: ExperimentPlan,
    cache: MaterializationCache,
) -> Dict[str, object]:
    """Execute one cell: best of ``plan.repeats`` metered kernel passes.

    A metered pass must meter the *kernel*, not whichever cell happened
    to pay the one-time materialization — otherwise the reference
    backend (which runs first) would absorb the ordering cost and every
    later backend's speedup would be inflated.  The cache meters the
    builds it performs and :func:`_kernel_pass` takes them out of the
    pass they ran in, so every pass is kept: cold or warm, and under any
    cache budget, the cell runs its kernel exactly ``plan.repeats``
    times and equals a warm cell up to timing.  The materialization
    cost shows up in the cache's stats (``build_seconds``), not here.
    ``reference``/``rel_error`` are filled in later by
    :func:`finalize_cells`, once the reference cells are known.
    """
    passes = [_kernel_pass(graph, set_cls, kernel, ordering, plan, cache)
              for _ in range(plan.repeats)]
    _, delta, raw = passes[-1]
    value, extras = _normalize_result(raw)
    return {
        "kernel": kernel.name,
        "ordering": ordering,
        "set_class": backend_name,
        "resolved_class": set_cls.__name__,
        "exact": bool(set_cls.IS_EXACT),
        "value": value,
        "seconds": min(seconds for seconds, _, _ in passes),
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
        f"materializations {mat['misses']} "
        f"({1000 * mat['build_seconds']:.1f} ms), cache hits {mat['hits']}; "
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
        allow_abbrev=False,
    )
    add_knob_flags(parser, *("--" + name.replace("_", "-")
                             for name in _FIELD_TYPES))
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny CI matrix "
                             "(2 backends × 2 orderings × 3 kernels) and "
                             "ignore the sweep-selection flags (--repeats "
                             "and the execution flags --workers/"
                             "--cache-budget-bytes still apply)")
    parser.add_argument("--verbose", action="store_true")
    return parser


def plan_from_argv(argv: Optional[List[str]] = None) -> ExperimentPlan:
    """Parse ``python -m repro suite`` flags into an :class:`ExperimentPlan`."""
    parser = build_suite_parser()
    return _plan_from_namespace(parser, parser.parse_args(argv))


def _plan_from_namespace(parser: argparse.ArgumentParser,
                         ns: argparse.Namespace) -> ExperimentPlan:
    """The plan *ns* denotes; every flag is checked, ``--smoke`` or not."""
    plan = plan_from_flags(parser, ns, ExperimentPlan())
    if not ns.smoke:
        return plan
    # The smoke matrix is fixed; the metering and execution knobs still
    # apply so CI can run the very same matrix through the process pool.
    return replace(ExperimentPlan.smoke(), **{
        name: getattr(plan, name) for name in SESSION_FIELDS + (
            "repeats", "cache_budget_bytes")})


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

    parser = build_suite_parser()
    ns = parser.parse_args(argv)
    plan = _plan_from_namespace(parser, ns)
    with MiningSession.from_plan(plan, verbose=ns.verbose) as session:
        payloads = session.run_plan(plan, verbose=ns.verbose)
    return 1 if report_payloads(payloads) else 0
