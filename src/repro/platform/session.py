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

Process pool
------------
The pool's workers are forked from the session process, and the pool
initializer receives the graph store plus each graph's
:meth:`~repro.graph.set_graph.MaterializationCache.export_graph_state`
straight from the parent's memory: nothing of the warm state is
pickled or shipped.  Tasks carry only ``(plan, dataset, cells)``, which
is what ``payload_bytes_shipped`` meters.

Sequential single queries (``.run()`` on a ``workers=1`` session) execute
in-process against the shared session cache — lowest latency, cache hits
visible in :meth:`MiningSession.stats`.  Batches (:meth:`Query.run_many`)
and plans (:meth:`MiningSession.run_plan`) fan out across the resident
pool when ``workers > 1``.
"""

from __future__ import annotations

import copy
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Type

from ..core import counters as _counters
from ..core.counters import Snapshot, merge_snapshots
from ..core.interface import SetBase
from ..graph import DATASETS, load_dataset
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from .suite import (
    ORDERING_ALIASES,
    REFERENCE_BACKEND,
    SUITE_KERNELS,
    ExperimentPlan,
    dataset_payload,
    expand_cells,
    resolve_backend,
    resolve_ordering_name,
    run_cell,
)

__all__ = [
    "ORDERING_ALIASES",
    "MiningSession",
    "Query",
    "QueryResult",
    "resolve_ordering_name",
]


def _plan_shard_key(plan: ExperimentPlan) -> tuple:
    """The plan fields two ``run_many`` variants must share to co-shard.

    Everything except the sweep selection (datasets/kernels/set_classes/
    orderings, which the shard's explicit cell specs carry instead): the
    kernel parameters, budgets, and execution knobs a worker actually
    reads while serving a shard.  Variants differing only in kernel (or
    cross-checking the same kernel under one backend) therefore share a
    shard — and its single materialization — while a variant with, say,
    a different ``k`` gets its own.
    """
    return astuple(replace(
        plan, datasets=(), kernels=(), set_classes=(), orderings=(),
    ))


@dataclass(frozen=True)
class QueryResult:
    """One answered query.

    ``seconds`` is the best-of-repeats kernel time (the suite cell
    metric, which leaves out the builds the cache metered); ``wall_seconds``
    is the end-to-end latency the session observed for this request,
    *including* any materialization — the number the cold-vs-warm
    comparison is about.  ``counters`` is the query's set-algebra delta
    over everything it ran, builds included (a warm query builds
    nothing, so with one repeat they equal its cell's counters), and
    ``cache_hits``/``cache_misses`` the session-cache delta (in-process
    queries only; pool-served queries hit worker-local caches instead,
    visible in :meth:`MiningSession.stats`).
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
        KMV signature size.  Resolution happens per graph at run time and
        is memoized by the session.
        """
        return self.with_overrides({
            "backend": name, "fpr": fpr, "bits": bits,
            "shared_bits": shared_bits, "kmv_k": kmv_k,
        })

    def ordering(self, name: str) -> "Query":
        """Select the vertex ordering (registry mnemonic or alias)."""
        return self.with_overrides({"ordering": name})

    def dispatch(self, mode: str) -> "Query":
        """Select the set-op dispatch policy (``static`` or ``adaptive``).

        ``adaptive`` swaps the resolved backend for the density-adaptive
        dispatcher when it is exact; sketch backends are left alone.
        Results are bit-identical either way.
        """
        return self.with_overrides({"dispatch": mode})

    def params(self, *, k: Optional[int] = None,
               eps: Optional[float] = None) -> "Query":
        """Override kernel parameters (clique size ``k``, ADG ``eps``)."""
        return self.with_overrides(
            {key: v for key, v in (("k", k), ("eps", eps)) if v is not None}
        )

    def repeats(self, n: int) -> "Query":
        """Meter the kernel as best-of-*n* (timing only).

        A query that has to materialize first runs one more pass, which
        pays the materialization and is not metered.
        """
        return self.with_overrides({"repeats": n})

    def cache_budget(self, nbytes: int) -> "Query":
        """Override the plan's worker-cache byte budget for this query.

        The session's own shared cache keeps the budget it was built
        with; this knob rides the compiled plan into *pool workers*
        (each worker's per-dataset :class:`MaterializationCache` is
        bounded by the plan budget), which is how the HTTP tier threads
        a tenant's cache-bytes quota into pool-served requests.  ``0``
        means unbounded; the default inherits the session budget.
        """
        return self.with_overrides({"cache_budget_bytes": nbytes})

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
        return self._session._run_query(self)

    def run_many(
        self, variants: Optional[Sequence[Mapping[str, object]]] = None
    ) -> List[QueryResult]:
        """Answer a batch: this query under each override dict.

        ``variants=None`` runs the query once (a batch of one).  On a
        ``workers > 1`` session the batch fans out over the resident pool,
        one task per variant; per-variant counter deltas are merged with
        the associative :meth:`Snapshot.merge` so the session totals are
        identical to a sequential run of the same batch.
        """
        queries = (
            [self] if variants is None
            else [self.with_overrides(v) for v in variants]
        )
        return self._session._run_batch(queries)


class MiningSession:
    """The long-lived facade owning graphs, cache, counters, and the pool.

    See the module docstring for the object model and migration notes.
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
        self._resolved: Dict[tuple, Tuple[CSRGraph, Type[SetBase]]] = {}
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
        will use, and budgeted resolution depends on these knobs.  (Pool
        workers derive budgeted sketch classes of their own, so for those
        the warmth benefits the in-process paths only.)
        """
        self._check_open()
        plan = self.defaults.with_knobs({
            "set_classes": backends, "orderings": orderings, "eps": eps,
            "fpr": fpr, "bits": bits, "shared_bits": shared_bits,
            "kmv_k": kmv_k,
        })
        graph = self.load(dataset)
        for backend in plan.set_classes:
            cls = self._backend_for(plan, dataset, backend, graph)
            self.cache.set_graph(graph, cls)
            for name in plan.orderings:
                kwargs = {"eps": plan.eps} if name == "ADG" else {}
                self.cache.oriented(graph, cls, name, **kwargs)

    # -- backend resolution -------------------------------------------------

    def _backend_for(self, plan: ExperimentPlan, dataset: str,
                     backend_name: str, graph: CSRGraph) -> Type[SetBase]:
        """Budget-resolved set class, memoized per (graph, budgets).

        Keyed by graph *identity*, not just the dataset name: budget
        resolution depends on the graph's size and average degree, and
        ``add_graph`` may re-bind a name to a different graph.  The memo
        holds the graph itself, both to compare identity and to pin the
        object so a recycled ``id()`` can never alias a stale entry.
        """
        key = (dataset, backend_name) + plan.budget_key()
        memo = self._resolved.get(key)
        if memo is not None and memo[0] is graph:
            return memo[1]
        cls = resolve_backend(plan, dataset, backend_name, graph)
        self._resolved[key] = (graph, cls)
        return cls

    # -- resident pool ------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The resident pool — created (and pre-warmed) at most once.

        The workers fork from this process and inherit the graph store
        and its exported cache state as initializer arguments, so the
        warm state is never pickled: only task arguments are shipped.
        """
        self._check_open()
        if self._pool is None:
            from .runner import _mp_context, _seed_worker

            warm = {
                name: (graph, self.cache.export_graph_state(graph))
                for name, graph in self._graphs.items()
            }
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_mp_context(),
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

    def _result_from_cell(self, dataset: str, cell: Dict[str, object],
                          wall: float, delta: Snapshot,
                          hits: int, misses: int) -> QueryResult:
        return QueryResult(
            kernel=cell["kernel"],
            dataset=dataset,
            backend=cell["set_class"],
            resolved_class=cell["resolved_class"],
            ordering=cell["ordering"],
            value=cell["value"],
            exact=cell["exact"],
            seconds=cell["seconds"],
            wall_seconds=wall,
            counters=delta,
            cache_hits=hits,
            cache_misses=misses,
            cell=cell,
        )

    def _run_query(self, query: Query) -> QueryResult:
        """Answer one query in-process against the shared session cache."""
        self._check_open()
        plan = query.plan()
        dataset = plan.datasets[0]
        graph = self.load(dataset)
        backend_name, kernel_name, ordering = query.cell_spec()
        set_cls = self._backend_for(plan, dataset, backend_name, graph)
        hits0, misses0 = self.cache.hits, self.cache.misses
        before = _counters.snapshot()
        t0 = time.perf_counter()
        cell = run_cell(
            graph, set_cls, SUITE_KERNELS[kernel_name], backend_name,
            ordering, plan, self.cache,
        )
        wall = time.perf_counter() - t0
        delta = before.delta(_counters.snapshot())
        self.queries_run += 1
        return self._result_from_cell(
            dataset, cell, wall, delta,
            self.cache.hits - hits0, self.cache.misses - misses0,
        )

    def _run_batch(self, queries: Sequence[Query]) -> List[QueryResult]:
        """Answer a batch — through the resident pool when workers > 1.

        Variants sharing a ``(dataset, backend, ordering)``
        materialization (under identical kernel parameters and budgets)
        are batched into **one** pool shard: the worker runs them
        back-to-back against the same warm cache entry, and the batch
        ships one task payload instead of one per variant.  Per-variant
        counters come from the shard's telescoping per-cell deltas, so
        they still sum exactly to what the shard cost; the shard's wall
        clock is attributed to each of its variants (they completed
        together).
        """
        self._check_open()
        if self.workers <= 1 or not queries:
            return [self._run_query(q) for q in queries]
        from .runner import _submit_shard, accumulate_cache_stats

        pool = self._ensure_pool()
        # Validate the whole batch before the first submission: a bad
        # variant must fail the batch up front, not after earlier
        # variants' shards (and their counter deltas) are already in
        # flight and would be silently abandoned.
        compiled = []
        for query in queries:
            plan = query.plan()
            self._require_pool_dataset(plan.datasets[0])
            compiled.append((query, plan))
        groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for index, (query, plan) in enumerate(compiled):
            backend, _, ordering = query.cell_spec()
            key = (plan.datasets[0], backend, ordering,
                   _plan_shard_key(plan))
            groups.setdefault(key, []).append(index)
        t0 = time.perf_counter()
        submitted = []
        done_at: Dict[int, float] = {}
        for group_index, members in enumerate(groups.values()):
            _, plan = compiled[members[0]]
            shard = [(i, compiled[i][0].cell_spec()) for i in members]
            future = _submit_shard(pool, plan, plan.datasets[0], shard)
            # Stamp completion as it happens — collecting futures in
            # submission order below would otherwise charge early
            # finishers with their predecessors' wait time.
            future.add_done_callback(
                lambda _f, g=group_index: done_at.setdefault(
                    g, time.perf_counter()
                )
            )
            submitted.append((future, members))
        results: List[Optional[QueryResult]] = [None] * len(compiled)
        deltas: List[Snapshot] = []
        for group_index, (future, members) in enumerate(submitted):
            shard = future.result()
            wall = done_at.get(group_index, time.perf_counter()) - t0
            deltas.append(shard["counters"])
            accumulate_cache_stats(
                self._worker_cache_stats, shard["pid"],
                shard["cache_stats"],
            )
            for (index, cell), cell_delta in zip(
                shard["cells"], shard["cell_counters"]
            ):
                results[index] = self._result_from_cell(
                    compiled[index][1].datasets[0], cell, wall, cell_delta,
                    0, 0,
                )
        # One associative merge, folded into this process's global block —
        # the session totals come out identical to a sequential run of the
        # same batch, whatever the completion order.
        _counters.COUNTERS.absorb(merge_snapshots(deltas))
        self.queries_run += len(queries)
        return results

    # -- plan execution (the suite path) ------------------------------------

    def run_plan(self, plan: ExperimentPlan,
                 verbose: Optional[bool] = None, *,
                 max_workers: Optional[int] = None,
                 cache_budget_bytes: Optional[int] = None,
                 ) -> List[Dict[str, object]]:
        """Execute a declarative :class:`ExperimentPlan` through the session.

        The session's execution knobs (``workers``/
        ``cache_budget_bytes``) govern — the plan's own are replaced, so
        one session applies a single execution policy to every plan it
        serves.  Sequential plans run against the shared session cache;
        parallel plans run on the resident pool.  Either way the
        artifact's ``materialization`` block reports only *this run's*
        cache deltas (gauges instantaneous), so a warm re-run shows hits
        without inheriting earlier runs' counts.

        ``max_workers`` clamps *this plan's* worker count to at most the
        session's (never below 1) without resizing the resident pool — a
        plan clamped to 1 runs sequentially in-process; a plan clamped to
        ``k < workers`` keeps at most ``k`` cells in flight on the pool.
        ``cache_budget_bytes`` likewise overrides the byte budget the plan
        carries into pool workers.  Both exist so a multi-tenant front end
        (``repro serve --http``) can thread per-tenant worker-share and
        cache quotas into individual plans.
        """
        self._check_open()
        verbose = self.verbose if verbose is None else verbose
        plan.validate()
        workers = self.workers
        if max_workers is not None:
            workers = max(1, min(workers, int(max_workers)))
        plan = replace(
            plan, workers=workers,
            cache_budget_bytes=(
                self.cache_budget_bytes if cache_budget_bytes is None
                else max(0, int(cache_budget_bytes))
            ),
        )
        if workers > 1:
            from .runner import run_plan_on_pool

            if self._pool is None:
                # Pull the plan's registry datasets into the store before
                # the one-and-only pool start, so the workers inherit the
                # graphs instead of each re-loading them on first touch.
                for dataset in plan.datasets:
                    if dataset in DATASETS:
                        self.load(dataset)
            pool = self._ensure_pool()
            for dataset in plan.datasets:
                self._require_pool_dataset(dataset)
            payloads = [
                run_plan_on_pool(pool, plan, dataset, verbose=verbose,
                                 worker_stats=self._worker_cache_stats)
                for dataset in plan.datasets
            ]
            self.plans_run += 1
            return payloads

        payloads: List[Dict[str, object]] = []
        for dataset in plan.datasets:
            graph = self.load(dataset)
            stats_baseline = self.cache.stats()
            cells: List[Dict[str, object]] = []
            t0 = time.perf_counter()
            for backend_name, kernel_name, ordering in expand_cells(plan):
                set_cls = self._backend_for(plan, dataset, backend_name,
                                            graph)
                cell = run_cell(
                    graph, set_cls, SUITE_KERNELS[kernel_name],
                    backend_name, ordering, plan, self.cache,
                )
                cells.append(cell)
                if verbose:
                    print(
                        f"  {dataset} {cell['kernel']:<9} "
                        f"{cell['ordering']:<4} {backend_name:<10} "
                        f"value={cell['value']} "
                        f"({1000 * cell['seconds']:.1f} ms)"
                    )
            measured = time.perf_counter() - t0
            payloads.append(dataset_payload(
                plan, dataset, graph.num_nodes, graph.num_edges, cells,
                self.cache.stats_since(stats_baseline), measured,
                workers=1, schedule="sequential",
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
