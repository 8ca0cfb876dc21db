"""Set-centric graph representation (paper section 5.3, Listing 2).

``SetGraph`` stores one *set* per vertex neighborhood, typed by the set
representation in use — the Python rendering of the C++ ``SetGraph<TSet>``
template.  Swapping the set class changes the layout of every neighborhood
(sorted arrays ↔ roaring bitmaps ↔ hash tables ↔ dense bitvectors) without
touching any algorithm code.

Besides the plain :func:`build_set_graph` conversion, this module provides
the two materialization services the unified mining pipeline is built on:

* :func:`build_oriented_set_graph` — the ``dir(G)`` step (Listing 7) fused
  with representation conversion: the arc filter ``η(v) < η(u)`` and the
  set construction run back to back, without materializing an
  intermediate oriented CSR graph.
* :class:`MaterializationCache` — memoizes orderings and (graph, backend,
  ordering) materializations, so an experiment-suite run converts each
  combination exactly once no matter how many kernels consume it, and
  meters the builds it performs.
  Neighborhood sets handed out by the cache are **shared and read-only by
  contract**: kernels must clone (or ``intersect`` into fresh sets) before
  mutating.

:func:`build_set_graph` and :func:`build_oriented_set_graph` each convert
every neighborhood with one bulk
:meth:`~repro.core.interface.SetBase.from_csr` call.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..core.counters import Snapshot
from ..core.interface import SetBase
from ..runtime.metrics import Span
from .csr import CSRGraph

__all__ = [
    "SetGraph",
    "build_set_graph",
    "build_oriented_set_graph",
    "MaterializationCache",
]


class SetGraph:
    """A graph whose neighborhoods are GMS sets (Listing 2).

    ``cardinalities[v]`` is ``|N(v)|``, recorded once at construction:
    neighborhoods are shared and read-only by contract, so it cannot go
    stale.  Bulk set instructions read operand sizes from it instead of
    recomputing them per operation.

    ``arcs`` is the ``(offsets, targets)`` CSR the sets were built from
    when the builder keeps it (:func:`build_oriented_set_graph` does, so
    a pass over every arc of the DAG need not re-run the arc filter), and
    ``None`` otherwise.  :meth:`storage_bytes` does not count it: a
    ``sorted`` set is a view of ``targets``, so it costs ``sorted`` only
    the offsets, and other backends 8 bytes per arc and per vertex more.
    """

    __slots__ = ("_neighborhoods", "set_cls", "directed", "cardinalities",
                 "arcs")

    def __init__(
        self,
        neighborhoods: Sequence[SetBase],
        set_cls: Type[SetBase],
        *,
        directed: bool = False,
        arcs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ):
        self._neighborhoods: List[SetBase] = list(neighborhoods)
        self.set_cls = set_cls
        self.directed = directed
        self.arcs = arcs
        self.cardinalities: List[int] = [
            s.cardinality() for s in self._neighborhoods
        ]

    @property
    def num_nodes(self) -> int:
        return len(self._neighborhoods)

    @property
    def num_edges(self) -> int:
        total = sum(self.cardinalities)
        return total if self.directed else total // 2

    @property
    def neighborhoods(self) -> List[SetBase]:
        """Every ``N(v)``, indexed by vertex (shared and read-only)."""
        return self._neighborhoods

    def out_neigh(self, v: int) -> SetBase:
        """Return ``N(v)`` as a set (shared object — clone before mutating)."""
        return self._neighborhoods[v]

    def __getitem__(self, v: int) -> SetBase:
        """Index access to neighborhoods — lets a ``SetGraph`` drop in
        anywhere a ``vertex → SetBase`` mapping (dict/list adjacency) is
        expected, e.g. the Bron–Kerbosch engine."""
        return self._neighborhoods[v]

    def out_degree(self, v: int) -> int:
        return self.cardinalities[v]

    def intersect_count_pairs(self, us: np.ndarray, vs: np.ndarray) -> int:
        """Return ``Σ_i |N(us[i]) ∩ N(vs[i])|``: one set instruction for
        a whole kernel pass, run by
        :meth:`~repro.core.interface.SetBase.intersect_count_pairs` of
        this graph's ``set_cls``."""
        return self.set_cls.intersect_count_pairs(self, us, vs)

    def has_edge(self, u: int, v: int) -> bool:
        return self._neighborhoods[u].contains(v)

    def vertices(self) -> range:
        return range(self.num_nodes)

    def storage_bytes(self) -> int:
        """Approximate resident size of all neighborhood sets: the sum of
        each set's :meth:`~repro.core.interface.SetBase.storage_bytes`."""
        return sum(s.storage_bytes() for s in self._neighborhoods)

    def __repr__(self) -> str:
        return (
            f"SetGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"set={self.set_cls.__name__})"
        )


def build_set_graph(graph: CSRGraph, set_cls: Type[SetBase]) -> SetGraph:
    """Materialize a :class:`SetGraph` from a CSR graph.

    This is the representation-construction step whose peak memory the
    paper's section 8.9 analysis measures: one bulk
    :meth:`~repro.core.interface.SetBase.from_csr` call, so the CSR source,
    the growing set graph and the backend's construction scratch (one
    bounded chunk for ``BitSet``) are co-resident.
    """
    return SetGraph(set_cls.from_csr(graph.offsets, graph.adjacency),
                    set_cls, directed=graph.directed)


def build_oriented_set_graph(
    graph: CSRGraph, rank: np.ndarray, set_cls: Type[SetBase]
) -> SetGraph:
    """Materialize the rank-oriented DAG directly as a :class:`SetGraph`.

    Fuses the ``dir(G)`` arc filter of Listing 7 (keep ``v → u`` iff
    ``η(v) < η(u)``, ties broken by vertex ID — the shared
    :func:`~repro.graph.transforms.oriented_arcs` rule) with the
    representation conversion: the surviving out-neighborhoods are
    converted straight into ``set_cls`` sets by one bulk
    :meth:`~repro.core.interface.SetBase.from_csr` call — no intermediate
    oriented ``CSRGraph`` is allocated.  The DAG keeps the filtered arcs
    as its ``arcs``.
    """
    from .transforms import oriented_arcs

    offsets, arcs_dst = oriented_arcs(graph, rank)
    return SetGraph(set_cls.from_csr(offsets, arcs_dst), set_cls,
                    directed=True, arcs=(offsets, arcs_dst))


class MaterializationCache:
    """Memoizes the per-(graph, backend, ordering) materialization work.

    An experiment-suite run sweeps kernels × backends × orderings over one
    graph; without caching, every cell would recompute the vertex ordering
    and re-convert every neighborhood.  This cache memoizes the three
    products along the way:

    * ``ordering(graph, name, **kwargs)`` — the
      :class:`~repro.preprocess.ordering.OrderingResult`;
    * ``set_graph(graph, set_cls)`` — the undirected :class:`SetGraph`;
    * ``oriented(graph, set_cls, name, **kwargs)`` — the ordering together
      with the rank-oriented :class:`SetGraph` DAG.

    Entries are keyed by graph *identity* (plus backend class and ordering
    parameters); the cache keeps a strong reference to each keyed graph so
    an ``id()`` can never be recycled while its entry is alive.

    ``budget_bytes`` bounds the resident :class:`SetGraph` payload (sized
    via :meth:`SetGraph.storage_bytes`): when an insertion pushes the
    total over the budget, or :meth:`set_budget` lowers the budget below
    it, least-recently-used entries are evicted until it fits —
    including, if the new entry alone exceeds the whole budget, the new
    entry itself, which is then handed out uncached.  Resident
    bytes therefore *never* exceed the budget.  Eviction only drops the
    cache's reference: :class:`SetGraph` objects already handed out stay
    fully valid (a later re-request simply rebuilds an equivalent one).
    ``OrderingResult`` entries are permutation-sized (two int arrays), a
    rounding error next to any materialized ``SetGraph``, so they are
    memoized unconditionally and do not count against the budget — but
    once a graph's *last* ``SetGraph`` entry is evicted, its memoized
    orderings and the pinning reference to the source ``CSRGraph`` are
    released too, so a bounded cache serving a stream of distinct graphs
    holds no memory (beyond the budget) for graphs it no longer caches.
    ``budget_bytes=None`` (the default) keeps the historical unbounded
    behavior — right for one suite run, wrong for a long-lived service.

    Contract: every :class:`SetGraph` handed out is **shared and
    read-only** — kernels must not mutate its neighborhood sets.
    ``hits``/``misses``/``evictions`` meter the materialization savings
    (and churn) and are reported in the suite artifact.

    Every miss is one build — a ``compute_ordering``,
    :func:`build_set_graph` or :func:`build_oriented_set_graph` call,
    looked up through its module at call time — and the cache meters it:
    ``build_seconds`` and ``build_counters`` (a counter
    :class:`~repro.core.counters.Snapshot`) total the wall time and the
    set-algebra counters of every build so far.  A :class:`SetGraph`
    build is metered together with its insertion, whose
    :meth:`SetGraph.storage_bytes` sizing walks every neighborhood.
    That is what lets :func:`~repro.platform.suite.run_cell` keep a pass
    that had to materialize, with the builds taken out of it.  A hit
    costs nothing extra.
    """

    def __init__(self, budget_bytes: Optional[int] = None) -> None:
        self._orderings: Dict[tuple, object] = {}
        # One LRU over both SetGraph families; keys are tagged with the
        # entry kind so stats() can still report them separately.
        self._graphs: "OrderedDict[tuple, SetGraph]" = OrderedDict()
        self._sizes: Dict[tuple, int] = {}
        self._pinned: Dict[int, CSRGraph] = {}
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.resident_bytes = 0
        self.build_seconds = 0.0
        self.build_counters = Snapshot.zero()
        self.set_budget(budget_bytes)

    def set_budget(self, budget_bytes: Optional[int]) -> None:
        """Bound the resident bytes by *budget_bytes* from now on
        (``None``: unbounded), evicting least-recently-used entries first
        until they fit."""
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0 or None")
        self.budget_bytes = budget_bytes
        self._fit()

    def _fit(self) -> None:
        """Evict least-recently-used entries until the budget holds."""
        if self.budget_bytes is None:
            return
        while self.resident_bytes > self.budget_bytes and self._graphs:
            victim, _ = self._graphs.popitem(last=False)
            self.resident_bytes -= self._sizes.pop(victim)
            self.evictions += 1
            self._release_if_unreferenced(victim[1])

    def _key(self, graph: CSRGraph) -> int:
        self._pinned[id(graph)] = graph
        return id(graph)

    def _lookup(self, key: tuple) -> Optional[SetGraph]:
        entry = self._graphs.get(key)
        if entry is not None:
            self.hits += 1
            self._graphs.move_to_end(key)
        return entry

    def _release_if_unreferenced(self, graph_id: int) -> None:
        """Drop a graph's orderings and pin once its last entry is gone.

        Without this, a bounded cache serving a stream of distinct graphs
        would still pin every ``CSRGraph`` (and ordering) it ever saw —
        the budget would hold while real memory leaked.  Dropping the
        orderings trades an occasional cheap recompute for a hard bound.
        """
        if any(key[1] == graph_id for key in self._graphs):
            return
        for key in [k for k in self._orderings if k[0] == graph_id]:
            del self._orderings[key]
        self._pinned.pop(graph_id, None)

    @contextmanager
    def _metered_build(self) -> Iterator[None]:
        """Meter one miss: the wall time and counter delta of the block
        join the build totals."""
        self.misses += 1
        with Span() as span:
            yield
        self.build_seconds += span.seconds
        self.build_counters += span.counters

    def _insert(self, key: tuple, sg: SetGraph) -> None:
        """Insert *sg* as most-recently-used, then evict LRU-first to fit."""
        size = sg.storage_bytes()
        self._graphs[key] = sg
        self._sizes[key] = size
        self.resident_bytes += size
        self.insertions += 1
        self._fit()

    def ordering(self, graph: CSRGraph, name: str, **kwargs):
        """Memoized :func:`~repro.preprocess.ordering.compute_ordering`."""
        key = (self._key(graph), name, tuple(sorted(kwargs.items())))
        if key in self._orderings:
            self.hits += 1
            return self._orderings[key]
        from ..preprocess.ordering import compute_ordering

        with self._metered_build():
            result = compute_ordering(graph, name, **kwargs)
        self._orderings[key] = result
        return result

    def set_graph(self, graph: CSRGraph, set_cls: Type[SetBase]) -> SetGraph:
        """Memoized :func:`build_set_graph` for one backend."""
        key = ("set_graph", self._key(graph), set_cls)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        with self._metered_build():
            sg = build_set_graph(graph, set_cls)
            self._insert(key, sg)
        return sg

    def oriented(
        self, graph: CSRGraph, set_cls: Type[SetBase], name: str, **kwargs
    ) -> Tuple[object, SetGraph]:
        """Memoized ``(OrderingResult, oriented SetGraph)`` for one cell."""
        order_res = self.ordering(graph, name, **kwargs)
        key = ("oriented", self._key(graph), set_cls, name,
               tuple(sorted(kwargs.items())))
        cached = self._lookup(key)
        if cached is not None:
            return order_res, cached
        with self._metered_build():
            dag = build_oriented_set_graph(graph, order_res.rank, set_cls)
            self._insert(key, dag)
        return order_res, dag

    def export_graph_state(self, graph: CSRGraph) -> Dict[str, Dict]:
        """Extract *graph*'s materialized state for another cache.

        Returns the memoized orderings and :class:`SetGraph` entries keyed
        without the process-local ``id(graph)``, so another process can
        install them under its own identity via :meth:`seed_graph_state`.
        This is what lets a resident worker pool start pre-warmed with the
        parent's materializations instead of re-materializing in every
        worker.  The keys hold the set class objects themselves, so a
        process that pickles the payload can ship only the entries whose
        class pickles by reference (the pool's initializer arguments
        under a start method other than ``fork``).
        """
        gid = id(graph)
        orderings = {
            key[1:]: value
            for key, value in self._orderings.items() if key[0] == gid
        }
        graphs = {
            (key[0],) + key[2:]: sg
            for key, sg in self._graphs.items() if key[1] == gid
        }
        return {"orderings": orderings, "graphs": graphs}

    def seed_graph_state(self, graph: CSRGraph, state: Dict[str, Dict]) -> None:
        """Install an :meth:`export_graph_state` payload for *graph*.

        Entries are inserted as most-recently-used and count against the
        byte budget exactly like locally-built ones; already-present keys
        are left untouched.  Seeding meters as insertions, not as hits or
        misses — the stats keep reflecting this process's own lookups.
        """
        gid = self._key(graph)
        for subkey, value in state["orderings"].items():
            self._orderings.setdefault((gid,) + subkey, value)
        for subkey, sg in state["graphs"].items():
            key = (subkey[0], gid) + subkey[1:]
            if key not in self._graphs:
                self._insert(key, sg)

    def _count(self, kind: str) -> int:
        return sum(1 for key in self._graphs if key[0] == kind)

    #: The monotone event counters in :meth:`stats` (deltas make sense);
    #: the remaining fields are instantaneous gauges.
    MONOTONE_STATS = ("hits", "misses", "insertions", "evictions",
                      "build_seconds")

    def stats(self) -> Dict[str, object]:
        """Hit/miss/eviction/entry/byte counts, and the measured build
        seconds, for the suite artifact."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "build_seconds": self.build_seconds,
            "orderings": len(self._orderings),
            "set_graphs": self._count("set_graph"),
            "oriented": self._count("oriented"),
            "resident_bytes": self.resident_bytes,
            "budget_bytes": self.budget_bytes,
        }

    def stats_since(self, baseline: Dict[str, object]) -> Dict[str, object]:
        """Stats attributable to the work since *baseline* (a prior
        :meth:`stats` snapshot): monotone event counters as deltas,
        gauges (entry/byte counts) at their current values.

        This is what lets one long-lived cache serve many requests while
        each request's artifact reports only its *own* cache economics.
        """
        now = self.stats()
        return {
            key: (now[key] - baseline[key] if key in self.MONOTONE_STATS
                  else now[key])
            for key in now
        }

    def clear(self) -> None:
        """Drop every entry (and the graph references pinning the keys)."""
        self._orderings.clear()
        self._graphs.clear()
        self._sizes.clear()
        self._pinned.clear()
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.resident_bytes = 0
        self.build_seconds = 0.0
        self.build_counters = Snapshot.zero()
