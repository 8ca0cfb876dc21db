"""Session-centric mining API: one long-lived object owns the state.

The GMS platform's modularity — swappable set representations, vertex
orderings, and kernels behind one set-algebra interface — needs one
owner for its state when a long-lived service answers repeated queries.
:class:`MiningSession` is that owner:

* a **named graph store** — registry datasets loaded once per session
  (:meth:`~MiningSession.load`), plus arbitrary in-memory graphs
  (:meth:`~MiningSession.add_graph`);
* one **budget-bounded** :class:`~repro.graph.set_graph.MaterializationCache`
  shared across *all* requests, so the second query touching a
  (graph, backend, ordering) combination hits cached materializations
  instead of rebuilding them;
* **merged counters** — :attr:`~MiningSession.counters` accumulates the
  set-algebra software counters across every query the session served,
  including work done in pool workers (folded back via the associative
  :meth:`~repro.core.counters.Snapshot.merge`);
* a **resident** :class:`~concurrent.futures.ProcessPoolExecutor` —
  started lazily on the first batch/plan that needs it, reused by every
  subsequent request, and **pre-warmed**: its forked workers inherit the
  session's graphs and oriented ``SetGraph`` materializations instead of
  re-materializing per task.  It is created at most once per session
  (:attr:`~MiningSession.pool_starts` pins this) and torn down by
  :meth:`~MiningSession.close`.

On top of the session sits the fluent :class:`Query` builder::

    from repro.platform.session import MiningSession

    with MiningSession(workers=2) as session:
        result = (
            session.query("kclique", k=4)
            .on("ca-grqc")
            .backend("bloom", fpr=0.01)
            .ordering("degeneracy")
            .run()
        )
        batch = session.query("tc").on("sc-ht-mini").run_many([
            {"backend": "bitset"}, {"backend": "bloom"},
        ])

A query holds one single-cell
:class:`~repro.platform.suite.ExperimentPlan` and runs through
:func:`~repro.platform.suite.run_cell`; every builder method is one call
into the plan's parser, :meth:`~repro.platform.suite.ExperimentPlan.
with_knobs`, which the suite CLI, the ``python -m repro serve`` REPL and
the HTTP front door share.

Execution
---------
Every cell the session executes — a query, one variant of a batch, one
cell of a plan — is one task, ``(plan, dataset, spec)``, run by one
method, :meth:`MiningSession._execute`, with one metered result
(:func:`repro.platform.runner.metered_cell`).  The call's concurrency
limit picks where: a limit of 1 runs the tasks one after another
in-process against the shared session cache; a larger limit runs them
on the resident pool behind the bounded dispatcher
(:func:`repro.platform.runner.dispatch`).  :meth:`Query.run` is a limit
of 1, so a single query stays in-process even on a pool session;
:meth:`Query.run_many` and :meth:`MiningSession.run_plan` use the
session's ``workers``.

The pool's workers are forked from the session process, and the pool
initializer receives the graph store plus each graph's
:meth:`~repro.graph.set_graph.MaterializationCache.export_graph_state`
straight from the parent's memory: nothing of the warm state is
pickled or shipped.  Tasks carry only ``(plan, dataset, spec)``, which
is what ``payload_bytes_shipped`` meters.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from ..core import counters as _counters
from ..core.counters import Snapshot
from ..graph import DATASETS, load_dataset
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from .runner import (
    Task,
    _merge_cache_stats,
    _mp_context,
    _seed_state,
    _seed_worker,
    accumulate_cache_stats,
    dispatch,
    metered_cell,
)
from .suite import (
    ORDERING_ALIASES,
    REFERENCE_BACKEND,
    SUITE_KERNELS,
    ExperimentPlan,
    dataset_payload,
    expand_cells,
    resolve_backend,
    resolve_ordering_name,
    # Cells run through suite.run_cell (see runner.metered_cell); the
    # name stays here because tracers patch it on both modules.
    run_cell,  # noqa: F401
)

__all__ = [
    "ORDERING_ALIASES",
    "MiningSession",
    "Query",
    "QueryResult",
    "resolve_ordering_name",
]


@dataclass(frozen=True)
class QueryResult:
    """One answered query.

    ``seconds`` is the best-of-repeats kernel time (the suite cell
    metric, which leaves out the builds the cache metered); ``wall_seconds``
    is the time from the call's start until the session saw this cell
    finish, *including* any materialization — the number the
    cold-vs-warm comparison is about.  ``counters`` is the query's
    set-algebra delta over everything it ran, builds included (a warm
    query builds nothing, so with one repeat they equal its cell's
    counters), and ``cache_hits``/``cache_misses`` the delta of the
    cache that served it: the session cache in-process, the worker's
    cache on the pool.
    """

    kernel: str
    dataset: str
    backend: str
    resolved_class: str
    ordering: str
    value: object
    exact: bool
    seconds: float
    wall_seconds: float
    counters: Snapshot
    cache_hits: int
    cache_misses: int
    cell: Dict[str, object] = field(repr=False)


class Query:
    """Fluent, immutable query description bound to a session.

    A query holds one single-cell :class:`ExperimentPlan`.  Every builder
    method is one :meth:`with_overrides` call and returns a *new*
    ``Query``, so a configured query can be reused as a template:
    ``base = session.query("tc").on("x")`` then
    ``base.backend("bloom").run()`` and ``base.run()`` are independent.
    :meth:`run` answers one query; :meth:`run_many` answers a batch of
    variations of this query (through the resident pool when the session
    has one).
    """

    def __init__(self, session: "MiningSession", kernel: str, *,
                 k: int = 4, eps: float = 0.1):
        self._session = session
        self._plan = replace(
            session.defaults, datasets=(), set_classes=(REFERENCE_BACKEND,),
            orderings=("DGR",),
        ).with_knobs({"kernel": kernel, "k": k, "eps": eps})

    def on(self, dataset: str) -> "Query":
        """Select the graph to mine (registry name or a session-added one)."""
        return self.with_overrides({"dataset": dataset})

    def backend(self, name: str, *, fpr: float = 0.0, bits: int = 0,
                shared_bits: int = 0, kmv_k: int = 0) -> "Query":
        """Select the set representation and its sketch budgets.

        The budget keywords carry the shared CLI semantics: ``fpr`` is the
        Bloom false-positive target (auto-sizes a shared budget, wins over
        the bit budgets), ``bits`` the per-element Bloom budget,
        ``shared_bits`` the per-graph shared Bloom total, ``kmv_k`` the
        KMV signature size.  Each cell resolves the class for its graph
        (:func:`~repro.platform.suite.resolve_backend`); equal budgets on
        one graph give the same class, so a repeated query stays warm.
        """
        return self.with_overrides({
            "backend": name, "fpr": fpr, "bits": bits,
            "shared_bits": shared_bits, "kmv_k": kmv_k,
        })

    def ordering(self, name: str) -> "Query":
        """Select the vertex ordering (registry mnemonic or alias)."""
        return self.with_overrides({"ordering": name})

    def params(self, *, k: Optional[int] = None,
               eps: Optional[float] = None) -> "Query":
        """Override kernel parameters (clique size ``k``, ADG ``eps``)."""
        return self.with_overrides(
            {key: v for key, v in (("k", k), ("eps", eps)) if v is not None}
        )

    def repeats(self, n: int) -> "Query":
        """Meter the kernel as best-of-*n* (timing only).

        Cold or warm, the cell runs exactly *n* kernel passes: the cache
        meters the builds a cold pass performs and keeps them out of it.
        """
        return self.with_overrides({"repeats": n})

    def with_overrides(self, overrides: Mapping[str, object]) -> "Query":
        """This query with *overrides* applied.

        Keys are query keys or plan fields, parsed by
        :meth:`ExperimentPlan.with_knobs`; the session-owned fields are
        rejected, and so is anything naming more than one cell.
        """
        plan = self._plan.with_knobs(overrides)
        if len(plan.datasets) > 1 or any(
                len(names) != 1 for names in
                (plan.kernels, plan.set_classes, plan.orderings)):
            raise ValueError("a query names one kernel, backend, ordering "
                             "and dataset; run a suite plan to sweep")
        query = copy.copy(self)
        query._plan = plan
        return query

    # -- compilation --------------------------------------------------------

    def plan(self) -> ExperimentPlan:
        """The single-cell :class:`ExperimentPlan` this query denotes."""
        if not self._plan.datasets:
            raise ValueError("query has no dataset; call .on(<dataset>)")
        return self._plan

    def cell_spec(self) -> Tuple[str, str, str]:
        """The ``(backend, kernel, ordering)`` cell this query denotes."""
        plan = self._plan
        kernel = SUITE_KERNELS[plan.kernels[0]]
        ordering = plan.orderings[0] if kernel.uses_ordering else "-"
        return (plan.set_classes[0], kernel.name, ordering)

    # -- execution ----------------------------------------------------------

    def run(self) -> QueryResult:
        """Answer this query in-process against the session cache."""
        (result,) = self._session._answer([self], limit=1)
        return result

    def run_many(
        self, variants: Optional[Sequence[Mapping[str, object]]] = None
    ) -> List[QueryResult]:
        """Answer a batch: this query under each override dict.

        ``variants=None`` runs the query once (a batch of one).  On a
        ``workers > 1`` session the batch fans out over the resident pool,
        one task per variant; the workers' counter deltas are merged with
        the associative :meth:`Snapshot.merge` so the session totals are
        identical to a sequential run of the same batch.
        """
        queries = (
            [self] if variants is None
            else [self.with_overrides(v) for v in variants]
        )
        return self._session._answer(queries, limit=self._session.workers)


class MiningSession:
    """The long-lived facade owning graphs, cache, counters, and the pool.

    See the module docstring for the object model and execution.
    ``workers=1`` (default) answers everything in-process; ``workers > 1``
    serves batches and plans from a resident process pool that is started
    lazily, pre-warmed once, and reused until :meth:`close`.
    """

    def __init__(self, *, workers: int = 1, cache_budget_bytes: int = 0,
                 verbose: bool = False):
        #: The execution knobs, checked like any plan's; every query this
        #: session compiles starts from this plan.
        self.defaults = ExperimentPlan(
            workers=workers, cache_budget_bytes=cache_budget_bytes,
        ).validate()
        self.workers = workers
        self.cache_budget_bytes = cache_budget_bytes
        self.verbose = verbose
        self.cache = MaterializationCache(
            budget_bytes=cache_budget_bytes or None
        )
        self.pool_starts = 0
        self.queries_run = 0
        self.plans_run = 0
        self._graphs: Dict[str, CSRGraph] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._shipped: frozenset = frozenset()
        self._rebound_after_pool: Set[str] = set()
        self._worker_cache_stats: Dict[int, Dict[str, object]] = {}
        self._baseline = _counters.snapshot()
        self._closed = False

    @classmethod
    def from_plan(cls, plan: ExperimentPlan,
                  verbose: bool = False) -> "MiningSession":
        """A session running with *plan*'s execution knobs (the suite CLI's)."""
        return cls(workers=plan.workers,
                   cache_budget_bytes=plan.cache_budget_bytes,
                   verbose=verbose)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "MiningSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Tear down the resident pool and refuse further requests.

        Idempotent.  The cache and counters stay readable after close (for
        final stats reporting); only execution is refused.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("MiningSession is closed")

    # -- graph store --------------------------------------------------------

    def load(self, name: str) -> CSRGraph:
        """Load a registry dataset into the session store (memoized)."""
        graph = self._graphs.get(name)
        if graph is None:
            graph = load_dataset(name)
            self._graphs[name] = graph
        return graph

    def add_graph(self, name: str, graph: CSRGraph) -> CSRGraph:
        """Register an in-memory graph under *name* for this session.

        Add custom graphs before the first parallel request: the resident
        pool's workers receive the graph store once, when they start, and
        can only self-load *registry* datasets afterwards.  For the same
        reason, a name already shipped to a running pool cannot be
        re-bound — the workers would keep serving the old graph.
        """
        if name in DATASETS:
            raise ValueError(
                f"{name!r} is a registry dataset name; pool workers "
                f"resolve registry names through the registry, so "
                f"shadowing one with a session graph would diverge — "
                f"pick a different name"
            )
        if self._pool is not None and name in self._shipped:
            raise RuntimeError(
                f"graph {name!r} was already shipped to the resident pool "
                f"and cannot be re-bound; use a new name (or a new session)"
            )
        if self._pool is not None and name in self._graphs:
            # A known-but-unshipped name re-bound after pool start: the
            # parent now holds a graph the workers never saw, and a later
            # parallel request for this name would otherwise resolve
            # worker-side to something else entirely.  Record the
            # divergence so _require_pool_dataset fails fast instead of
            # letting it pass silently.
            self._rebound_after_pool.add(name)
        self._graphs[name] = graph
        return graph

    def graphs(self) -> List[str]:
        """Names currently in the session store."""
        return sorted(self._graphs)

    def warm(self, dataset: str, backends: Sequence[str] = ("sorted",),
             orderings: Sequence[str] = ("DGR",), eps: float = 0.1, *,
             fpr: float = 0.0, bits: int = 0, shared_bits: int = 0,
             kmv_k: int = 0) -> None:
        """Pre-materialize (backend × ordering) combinations for *dataset*.

        Populates the session cache so a subsequent pool start hands its
        workers real materializations — and so the first query is already
        warm.  The budget keywords mirror :meth:`Query.backend`: warming
        is only useful if it resolves to the *same* class the queries
        will use, and budgeted resolution depends on these knobs.  Forked
        pool workers inherit the budgeted classes with the warm state, so
        a budgeted query hits there too.
        """
        self._check_open()
        plan = self.defaults.with_knobs({
            "set_classes": backends, "orderings": orderings, "eps": eps,
            "fpr": fpr, "bits": bits, "shared_bits": shared_bits,
            "kmv_k": kmv_k,
        })
        graph = self.load(dataset)
        for backend in plan.set_classes:
            cls = resolve_backend(plan, backend, graph)
            self.cache.set_graph(graph, cls)
            for name in plan.orderings:
                kwargs = {"eps": plan.eps} if name == "ADG" else {}
                self.cache.oriented(graph, cls, name, **kwargs)

    # -- resident pool ------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The resident pool — created (and pre-warmed) at most once.

        The workers fork from this process and inherit the graph store
        and its exported cache state as initializer arguments, so the
        warm state is never pickled: only task arguments are shipped.
        """
        self._check_open()
        if self._pool is None:
            context = _mp_context()
            warm = {
                name: (graph, _seed_state(
                    self.cache.export_graph_state(graph), context))
                for name, graph in self._graphs.items()
            }
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_seed_worker,
                initargs=(warm, self.cache_budget_bytes or None),
            )
            self.pool_starts += 1
            self._shipped = frozenset(warm)
        return self._pool

    def _require_pool_dataset(self, dataset: str) -> None:
        """Fail fast when a pool worker could not obtain *dataset*.

        Workers hold the graphs shipped at pool creation and can
        self-load registry datasets; anything else — a custom graph
        added, or a shipped/known name re-bound, after the pool started —
        would make the workers mine a different graph than the parent
        holds, so both cases raise here instead of diverging silently.
        """
        if dataset in self._rebound_after_pool:
            raise RuntimeError(
                f"graph {dataset!r} was re-bound after the resident pool "
                f"started; the workers never received the new graph and "
                f"would serve stale data — use a new name (or a new "
                f"session) for the re-bound graph"
            )
        if dataset in self._shipped or dataset in DATASETS:
            return
        raise RuntimeError(
            f"dataset {dataset!r} was not shipped to the resident pool "
            f"(added after the pool started); add custom graphs before "
            f"the first parallel request"
        )

    # -- query execution ----------------------------------------------------

    def query(self, kernel: str, *, k: int = 4, eps: float = 0.1) -> Query:
        """Start a fluent :class:`Query` for one suite kernel."""
        self._check_open()
        return Query(self, kernel, k=k, eps=eps)

    def _execute(self, tasks: Sequence[Task],
                 limit: int) -> Iterator[Tuple[int, Dict[str, object]]]:
        """Run cell *tasks*; yield ``(index, result)`` as cells finish.

        The one executor behind :meth:`Query.run`, :meth:`Query.run_many`
        and :meth:`run_plan`.  A *limit* of 1 runs the tasks one after
        another in-process on the session cache; a larger limit runs them
        on the resident pool with at most *limit* in flight.  Each result
        is a :func:`~repro.platform.runner.metered_cell` report stamped
        with ``done_at``, this process's ``perf_counter`` when the cell
        finished.  Pool results have their counter deltas folded into
        this process's global block, and their cache stats into
        ``stats()["worker_caches"]``.
        """
        self._check_open()
        if limit <= 1 or not tasks:
            for index, (plan, dataset, spec) in enumerate(tasks):
                graph = self.load(dataset)
                set_cls = resolve_backend(plan, spec[0], graph)
                result = metered_cell(graph, self.cache, set_cls, plan, spec)
                result["done_at"] = time.perf_counter()
                yield index, result
            return
        if self._pool is None:
            # Pull registry datasets into the store before the one and
            # only pool start, so the workers inherit the graphs instead
            # of each loading them on first touch.
            for _, dataset, _ in tasks:
                if dataset in DATASETS:
                    self.load(dataset)
        pool = self._ensure_pool()
        # Check every task before the first submit: a bad one must fail
        # the call up front, not after earlier tasks are in flight.
        for _, dataset, _ in tasks:
            self._require_pool_dataset(dataset)
        for index, result in dispatch(pool, tasks, limit):
            _counters.COUNTERS.absorb(result["counters"])
            accumulate_cache_stats(self._worker_cache_stats, result["pid"],
                                   result["cache_stats"])
            yield index, result

    def _answer(self, queries: Sequence[Query],
                limit: int) -> List[QueryResult]:
        """Answer *queries*, one task each, through :meth:`_execute`.

        Every query compiles before the first cell runs, so a bad
        variant fails the whole batch up front.
        """
        tasks: List[Task] = []
        for query in queries:
            plan = query.plan()
            tasks.append((plan, plan.datasets[0], query.cell_spec()))
        answers: List[Optional[QueryResult]] = [None] * len(tasks)
        t0 = time.perf_counter()
        for index, result in self._execute(tasks, limit):
            cell, stats = result["cell"], result["cache_stats"]
            answers[index] = QueryResult(
                kernel=cell["kernel"],
                dataset=tasks[index][1],
                backend=cell["set_class"],
                resolved_class=cell["resolved_class"],
                ordering=cell["ordering"],
                value=cell["value"],
                exact=cell["exact"],
                seconds=cell["seconds"],
                wall_seconds=result["done_at"] - t0,
                counters=result["counters"],
                cache_hits=stats["hits"],
                cache_misses=stats["misses"],
                cell=cell,
            )
        self.queries_run += len(tasks)
        return answers

    # -- plan execution (the suite path) ------------------------------------

    def run_plan(self, plan: ExperimentPlan,
                 verbose: Optional[bool] = None, *,
                 cache_budget_bytes: Optional[int] = None,
                 ) -> List[Dict[str, object]]:
        """Execute a declarative :class:`ExperimentPlan` through the session.

        The session's execution knobs (``workers``/
        ``cache_budget_bytes``) govern — the plan's own are replaced, so
        one session applies a single execution policy to every plan it
        serves.  Each dataset's cells run through :meth:`_execute`: in
        process on the shared session cache for one worker, on the
        resident pool for more.  Either way the artifact's
        ``materialization`` block reports only *this run's* cache deltas
        (gauges instantaneous), so a warm re-run shows hits without
        inheriting earlier runs' counts.

        ``cache_budget_bytes`` overrides the byte budget the plan carries
        into pool workers: ``POST /suite`` (``repro serve --http``) passes
        the budget of the request body through it.
        """
        self._check_open()
        verbose = self.verbose if verbose is None else verbose
        plan.validate()
        workers = self.workers
        plan = replace(
            plan, workers=workers,
            cache_budget_bytes=(
                self.cache_budget_bytes if cache_budget_bytes is None
                else max(0, int(cache_budget_bytes))
            ),
        )
        # In-process cells run on the session cache, whatever budget the
        # plan carries for pool workers.
        budget = (self.cache.budget_bytes if workers == 1
                  else plan.cache_budget_bytes or None)
        specs = expand_cells(plan)
        payloads: List[Dict[str, object]] = []
        for dataset in plan.datasets:
            cells: List[Optional[Dict[str, object]]] = [None] * len(specs)
            per_pid: Dict[int, Dict[str, object]] = {}
            t0 = time.perf_counter()
            for index, result in self._execute(
                    [(plan, dataset, spec) for spec in specs], workers):
                cell = cells[index] = result["cell"]
                accumulate_cache_stats(per_pid, result["pid"],
                                       result["cache_stats"])
                if verbose:
                    print(
                        f"  {dataset} {cell['kernel']:<9} "
                        f"{cell['ordering']:<4} "
                        f"{cell['set_class']:<10} value={cell['value']} "
                        f"({1000 * cell['seconds']:.1f} ms, "
                        f"pid {result['pid']})"
                    )
            payloads.append(dataset_payload(
                plan, dataset, result["num_nodes"], result["num_edges"],
                cells, _merge_cache_stats(per_pid, budget),
                time.perf_counter() - t0, workers=workers,
                schedule="dynamic" if workers > 1 else "sequential",
            ))
        self.plans_run += 1
        return payloads

    # -- observability ------------------------------------------------------

    @property
    def counters(self) -> Snapshot:
        """Merged set-algebra counters across everything this session ran.

        Pool workers' deltas are folded into the parent's global block as
        batches/plans complete, so this covers them too.
        """
        return self._baseline.delta(_counters.snapshot())

    def stats(self) -> Dict[str, object]:
        """Session-level stats: cache, counters, pool, and traffic."""
        counters = self.counters
        worker_stats = {
            field_: sum(s[field_] for s in self._worker_cache_stats.values())
            for field_ in ("hits", "misses", "evictions", "build_seconds")
        } if self._worker_cache_stats else None
        return {
            "cache": self.cache.stats(),
            "worker_caches": worker_stats,
            "counters": {
                "set_ops": counters.set_ops,
                "point_ops": counters.point_ops,
                "sketch_builds": counters.sketch_builds,
                "memory_traffic": counters.memory_traffic,
                "payload_bytes_shipped": counters.payload_bytes_shipped,
                "payload_tasks": counters.payload_tasks,
            },
            "pool": {
                "workers": self.workers,
                "starts": self.pool_starts,
                "resident": self._pool is not None,
            },
            "graphs": self.graphs(),
            "queries": self.queries_run,
            "plans": self.plans_run,
            "closed": self._closed,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"MiningSession(workers={self.workers}, "
            f"graphs={len(self._graphs)}, "
            f"queries={self.queries_run}, {state})"
        )
