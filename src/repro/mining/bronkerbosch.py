"""Maximal clique listing: the Bron–Kerbosch family (paper section 6.2).

Implements Algorithm 6 — Bron–Kerbosch with Tomita pivoting over an ordered
outer loop — together with every variant the evaluation compares:

=================  =====================================================
``BK-DAS``         Re-implementation of the Das et al. baseline: exact
                   degeneracy (DGR) outer order, hash-table sets, pivot
                   selection over *full* neighborhoods.
``BK-GMS-DEG``     GMS code with simple degree ordering.
``BK-GMS-DGR``     GMS code with exact degeneracy ordering — the enhanced
                   Eppstein et al. variant.
``BK-GMS-ADG``     GMS code with the (2+ε)-approximate degeneracy order —
                   the new algorithm proposed by the paper (section 7.5).
``BK-GMS-ADG-S``   BK-GMS-ADG plus the subgraph (``H``) optimization:
                   precompute, once per outer vertex, the subgraph induced
                   by ``P ∪ X`` and run pivoting and the pruning
                   intersections against the smaller ``N_H`` neighborhoods.
=================  =====================================================

All GMS variants are parameterized by the set representation (``5+``
modularity hook); the paper's default — and fastest — choice is compressed
bitvectors (roaring bitmaps) for ``P``/``X`` and the neighborhoods.  In this
pure-Python port the big-int :class:`~repro.core.bit_set.BitSet` plays that
role: its word-parallel ``&``/``|`` run in C, exactly like roaring's bitmap
containers, and it is the fastest representation at the miniature dataset
scale (``RoaringSet`` has identical semantics and wins for large sparse
universes; see the set-representation ablation bench).

The initial per-vertex candidate sets follow the splitting observation of
section 6.2: ``P = N(v) ∩ {v_{i+1}..v_n}`` and ``X = N(v) ∩ {v_1..v_{i-1}}``
are computed by *splitting* ``N(v)`` by rank instead of materializing the
range sets.  The outer loop runs in blocks of the order: each block is
split with one vectorized :func:`~repro.graph.transforms.rank_split` and
built with one bulk :meth:`~repro.core.interface.SetBase.from_csr` per
side, so a run holds at most one block of them (:data:`_BLOCK_BYTES`).

Counting, the whole subtree below an outer vertex is one bulk set
instruction, :meth:`~repro.core.interface.SetBase.maximal_clique_count`,
which returns the subtree's maximal cliques, its recursive calls and the
most vertices a clique adds to ``R``.  Its default is the per-step
recursion: each call that is no leaf is one
:meth:`~repro.core.interface.SetBase.pivot_branch` step, the Tomita
pivot scan (:meth:`~repro.core.interface.SetBase.intersect_count_argmax`
of ``P`` over the neighborhoods of ``P ∪ X``), the candidate diff, and
the branch loop that yields each child's ``P ∩ N(v)`` and ``X ∩ N(v)``
and moves ``v`` from ``P`` to ``X`` after the child returns.  ``bitset``
and ``hash`` run the subtree on fast paths, with no generator and no set
object per child; every other backend (BK-DAS's ``sorted`` included)
and the dict adjacency of the ``H`` subgraph run the default.
Collecting the cliques, or pivoting on a sketch (whose ``P`` and ``X``
are ``bitset``), the engine keeps its own recursion of one
``pivot_branch`` per call, on a fast path on ``bitset``.

Sketch-assisted pivoting (``pivot_set_cls``): the Tomita pivot scan only
feeds an **argmax** over ``|P ∩ N(u)|``, so a bounded-error estimate of the
count is sufficient — the SISA/ProbGraph observation that estimated
``intersect_count`` is enough wherever a count only selects a winner.
Passing an approximate set class (``"bloom"``/``"kmv"``) as
``pivot_set_cls`` routes *only* that scan through sketch estimators — the
same scan instruction, issued on the ``P`` sketch against the sketch
neighborhoods, whose winner is passed to ``pivot_branch`` — while
``P``/``X`` and the candidate pruning stay exact.
Any ``u ∈ P ∪ X`` is a valid pivot for BK-Pivot, so the enumerated
maximal-clique set is provably identical to the exact run — a mis-ranked
pivot can only change the recursion shape (number of recursive calls),
never the output.

The ``P`` sketch is maintained *incrementally*, ProbGraph style: it is
built from scratch once per outer vertex, derived for each child call by a
sketch-level ``intersect`` with the neighbor's sketch, and updated with
``remove(v)`` as the sibling loop removes ``v`` from ``P`` — never rebuilt
per recursive call.  Because the sketch only feeds counts (the pivot scan
iterates the *exact* ``P``/``X`` members), any drift the incremental
maintenance accumulates (e.g. Bloom's stale bits after removal) is
harmless: the chosen pivot is always a member of ``P ∪ X``.  The
``sketch_builds`` software counter meters this invariant — builds scale
with the number of outer vertices, not with the number of recursive calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

import numpy as np

from ..core.bit_set import BitSet
from ..core.hash_set import HashSet
from ..core.interface import SetBase
from ..graph.csr import CSRGraph
from ..graph.set_graph import MaterializationCache
from ..graph.transforms import rank_split
from ..preprocess.ordering import OrderingResult
from ..runtime.metrics import Span, timed_tasks

__all__ = ["BKResult", "bron_kerbosch", "bk_das", "BK_VARIANTS", "run_bk_variant"]

#: Bytes one block of the outer loop's initial ``P``/``X`` sets may hold,
#: as :func:`_blocks` estimates them (like ``BitSet.from_csr``'s chunks).
_BLOCK_BYTES = 4 << 20
#: Estimated bytes per member and per set on top of a set's dense
#: bitvector: a hash-table slot and its int object, which bounds the
#: other backends' per-member cost too.
_MEMBER_BYTES = 64


@dataclass
class BKResult:
    """Outcome of one maximal-clique-listing run.

    ``reorder_seconds`` times the ordering alone, and neither it nor
    ``mine_seconds`` times the build of the neighbourhood ``SetGraph``.
    ``mine_seconds`` times the loop over the outer vertices, the builds
    of each block's initial ``P``/``X`` sets included.  ``task_costs``
    holds the seconds of each outer vertex: its ``H`` subgraph and pivot
    sketch builds are in it, the block builds are not.
    """

    variant: str
    num_cliques: int
    cliques: Optional[List[List[int]]]
    reorder_seconds: float
    mine_seconds: float
    task_costs: List[float] = field(default_factory=list)
    ordering_rounds: int = 1
    recursive_calls: int = 0
    max_clique_size: int = 0

    @property
    def total_seconds(self) -> float:
        return self.reorder_seconds + self.mine_seconds

    def throughput(self) -> float:
        """Maximal cliques mined per second (the Figure 1 metric)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.num_cliques / self.total_seconds


class _BKEngine:
    """Shared recursive kernel; adjacency is any vertex → SetBase mapping.

    ``pivot_adjacency`` optionally routes the pivot scan through sketch
    estimates (see module docstring); when unset, the scan uses the exact
    ``adjacency``.
    """

    def __init__(self, adjacency, collect: bool, pivot_adjacency=None):
        self.adjacency = adjacency
        self.pivot_adjacency = pivot_adjacency
        self.cliques: Optional[List[List[int]]] = [] if collect else None
        self.num_cliques = 0
        self.calls = 0
        self.max_size = 0

    def expand(
        self,
        P: SetBase,
        R: List[int],
        X: SetBase,
        P_sketch: Optional[SetBase] = None,
    ) -> None:
        """BK-Pivot(P, R, X) — Algorithm 6, lines 18–28.

        Counting with the exact pivot, the whole subtree is one
        :meth:`~SetBase.maximal_clique_count` instruction.  Collecting
        cliques or pivoting on a sketch, it is one
        :meth:`~SetBase.pivot_branch` instruction per call.
        ``P_sketch`` is the incrementally maintained pivot-scan sketch of
        ``P`` (when sketch pivoting is active): the pivot is scanned on
        it against the sketch neighborhoods and passed in, each child
        derives its sketch with one sketch-level ``intersect``, and
        ``v`` leaves ``P_sketch`` once its subtree returns — the sketch
        is never rebuilt from ``P``'s members inside the recursion.  Only
        the counts are estimates, so the pivot is still a member of
        ``P ∪ X`` whatever the estimate error or the sketch's drift.
        """
        if self.cliques is None and P_sketch is None:
            found, calls, depth = P.maximal_clique_count(X, self.adjacency)
            self.num_cliques += found
            self.calls += calls
            if found and len(R) + depth > self.max_size:
                self.max_size = len(R) + depth
            return
        self.calls += 1
        if P.is_empty() and X.is_empty():
            self.num_cliques += 1
            if len(R) > self.max_size:
                self.max_size = len(R)
            if self.cliques is not None:
                self.cliques.append(list(R))
            return
        pivot = child_sketch = None
        if P_sketch is not None:
            pivot = P_sketch.intersect_count_argmax(
                self.pivot_adjacency,
                P.members() + X.members())
        for v, P_v, X_v in P.pivot_branch(X, self.adjacency, pivot):
            if P_sketch is not None:
                child_sketch = P_sketch.intersect(self.pivot_adjacency[v])
            R.append(v)
            self.expand(P_v, R, X_v, child_sketch)
            R.pop()
            if P_sketch is not None:
                P_sketch.remove(v)  # incremental maintenance (ProbGraph)


def bron_kerbosch(
    graph: CSRGraph,
    ordering: str = "ADG",
    set_cls: Type[SetBase] = BitSet,
    subgraph_opt: bool = False,
    collect: bool = False,
    eps: float = 0.1,
    pivot_set_cls: Optional[Type[SetBase]] = None,
    cache: Optional[MaterializationCache] = None,
) -> BKResult:
    """Run the GMS Bron–Kerbosch variant selected by the arguments.

    Parameters
    ----------
    ordering:
        Outer-loop vertex order: ``"DEG"``, ``"DGR"``, ``"ADG"``, ``"ID"``…
    set_cls:
        Set representation for ``P``, ``X`` and the neighborhoods.
    subgraph_opt:
        Enable the per-outer-vertex induced-subgraph (``H``) caching of
        section 6.2 (the ``-S`` variants).
    collect:
        Also return the cliques themselves (not just the count).
    eps:
        Approximation parameter for the ADG ordering.
    pivot_set_cls:
        Optional (typically approximate) set representation for the pivot
        scan only: ``|P ∩ N(u)|`` is estimated with this class's
        ``intersect_count`` while ``P``/``X`` and the candidate pruning
        stay in ``set_cls``.  The maximal-clique output is identical to
        the exact run for any choice (the count only feeds an argmax over
        valid pivots).  Under ``subgraph_opt`` the pivot sketches are built
        once over the *full* neighborhoods rather than per-outer-vertex
        ``H`` subgraphs; the targeted quantity is unchanged because
        ``P ⊆ B`` implies ``P ∩ N(u) = P ∩ N_H(u)`` for every ``u ∈ B``.
    cache:
        Optional materialization cache: the ordering and the
        ``set_cls``/``pivot_set_cls`` neighborhood :class:`SetGraph`\\ s
        are resolved through it, so suite runs share them across kernels
        (the sets are read-only here — P/X are fresh per outer vertex).
    """
    if cache is None:
        cache = MaterializationCache()
    kwargs = {"eps": eps} if ordering == "ADG" else {}
    with Span() as reorder:
        order_res: OrderingResult = cache.ordering(graph, ordering, **kwargs)

    neighborhoods = cache.set_graph(graph, set_cls)
    pivot_neighborhoods = None
    if pivot_set_cls is not None:
        pivot_neighborhoods = cache.set_graph(graph, pivot_set_cls)
    engine = _BKEngine(neighborhoods, collect,
                       pivot_adjacency=pivot_neighborhoods)

    def vertex_tasks(sets, p_off, p_arcs, x_off, x_arcs):
        # One task per outer vertex, valued by the maximal cliques it finds.
        for i, (v, P, X) in enumerate(sets):
            if subgraph_opt or pivot_set_cls is not None:
                later = p_arcs[p_off[i]:p_off[i + 1]]
            if subgraph_opt:
                # Swap in the per-vertex H subgraph; P, X ⊆ H's vertex
                # set for the whole subtree, so every intersection below
                # uses N_H.
                engine.adjacency = _induced_adjacency(
                    neighborhoods, later, x_arcs[x_off[i]:x_off[i + 1]],
                    set_cls)
            # The only from-scratch pivot-sketch build of this subtree:
            # the recursion maintains it incrementally from here on.
            P_sketch = (
                pivot_set_cls.from_sorted_array(later)
                if pivot_set_cls is not None
                else None
            )
            found = engine.num_cliques
            engine.expand(P, [v], X, P_sketch)
            yield engine.num_cliques - found

    def blocks():
        # A block's initial P/X sets are built here, outside every task.
        # Only the block's task generator holds them, so one block of
        # them is alive at a time.
        order = order_res.order
        for start, stop in _blocks(graph, order):
            block = order[start:stop]
            (p_off, p_arcs), (x_off, x_arcs) = rank_split(
                graph, order_res.rank, block)
            yield vertex_tasks(
                zip(block.tolist(), set_cls.from_csr(p_off, p_arcs),
                    set_cls.from_csr(x_off, x_arcs)),
                p_off, p_arcs, x_off, x_arcs)

    num_cliques, task_costs, mine_seconds = timed_tasks(blocks())
    name = f"BK-GMS-{order_res.name}" + ("-S" if subgraph_opt else "")
    if pivot_set_cls is not None:
        name += f"-SP[{pivot_set_cls.__name__}]"
    return BKResult(
        variant=name,
        num_cliques=num_cliques,
        cliques=engine.cliques,
        reorder_seconds=reorder.seconds,
        mine_seconds=mine_seconds,
        task_costs=task_costs,
        ordering_rounds=order_res.rounds,
        recursive_calls=engine.calls,
        max_clique_size=engine.max_size,
    )


def _blocks(graph: CSRGraph, order: np.ndarray):
    """Yield ``(start, stop)`` runs of *order* whose initial ``P`` and
    ``X`` sets fit in :data:`_BLOCK_BYTES`, one vertex at least.

    Each of a vertex's two sets is estimated as a dense bitvector as wide
    as ``N(v)`` (``(max >> 3) + 1`` bytes, as ``BitSet.from_csr`` sizes
    it), and :data:`_MEMBER_BYTES` is added per member and per set.
    """
    degrees = graph.degrees()[order]
    cost = _MEMBER_BYTES * (degrees + 2)
    filled = degrees > 0
    last = graph.adjacency[graph.offsets[order[filled] + 1] - 1]
    cost[filled] += 2 * ((last >> 3) + 1)
    spent = np.cumsum(cost)
    start = 0
    while start < len(cost):
        budget = _BLOCK_BYTES + (spent[start - 1] if start else 0)
        stop = max(int(np.searchsorted(spent, budget, "right")), start + 1)
        yield start, stop
        start = stop


def _induced_adjacency(
    neighborhoods,  # any vertex → SetBase mapping (dict or SetGraph)
    later: np.ndarray,
    earlier: np.ndarray,
    set_cls: Type[SetBase],
) -> Dict[int, SetBase]:
    """Build the ``H`` subgraph of section 6.2 for one outer vertex.

    ``H`` has vertex set ``B = P ∪ X`` and keeps, for every ``w ∈ B``, only
    the neighbors inside ``B``: ``N_H(w) = N(w) ∩ B``.  All pivoting and
    pruning intersections inside the subtree may use ``N_H`` because
    ``P, X ⊆ B`` throughout.  Built with one bulk intersection per member,
    reusing the already-materialized neighborhood sets.
    """
    base = np.concatenate([earlier, later])
    base.sort()
    base_set = set_cls.from_sorted_array(base)
    return {
        int(w): neighborhoods[int(w)].intersect(base_set) for w in base.tolist()
    }


def bk_das(
    graph: CSRGraph,
    collect: bool = False,
    cache: Optional[MaterializationCache] = None,
) -> BKResult:
    """The Das et al. shared-memory BK baseline (re-implementation).

    Faithful to the original's design choices: the exact degeneracy order
    (computed sequentially), vertex sets stored as *sorted arrays* with
    merge-based ``set_intersection`` kernels (the std::vector layout of the
    original code), pivot selection over full neighborhoods, and the
    initial ``P``/``X`` computed with generic set operations against an
    incrementally maintained "remaining vertices" set — i.e. *without* the
    GMS splitting, bitvector, and subgraph optimizations.
    """
    if cache is None:
        cache = MaterializationCache()
    with Span() as reorder:
        order_res = cache.ordering(graph, "DGR")

    from ..core.sorted_set import SortedSet

    neighborhoods = cache.set_graph(graph, SortedSet)
    engine = _BKEngine(neighborhoods, collect)
    remaining = SortedSet.from_sorted_array(np.arange(graph.num_nodes))

    def vertex_tasks(order):
        for v in order:
            remaining.remove(v)
            neigh = neighborhoods[v]
            P = neigh.intersect(remaining)
            X = neigh.diff(remaining)
            X.remove(v)
            found = engine.num_cliques
            engine.expand(P, [v], X)
            yield engine.num_cliques - found

    num_cliques, task_costs, mine_seconds = timed_tasks(
        [vertex_tasks(order_res.order.tolist())])
    return BKResult(
        variant="BK-DAS",
        num_cliques=num_cliques,
        cliques=engine.cliques,
        reorder_seconds=reorder.seconds,
        mine_seconds=mine_seconds,
        task_costs=task_costs,
        ordering_rounds=order_res.rounds,
        recursive_calls=engine.calls,
        max_clique_size=engine.max_size,
    )


#: The named variants of the evaluation (Figures 1, 4, 11).
BK_VARIANTS = (
    "BK-DAS",
    "BK-GMS-DEG",
    "BK-GMS-DGR",
    "BK-GMS-ADG",
    "BK-GMS-ADG-S",
)


def run_bk_variant(
    graph: CSRGraph,
    variant: str,
    set_cls: Type[SetBase] = BitSet,
    collect: bool = False,
    cache: Optional[MaterializationCache] = None,
) -> BKResult:
    """Dispatch a named BK variant (see :data:`BK_VARIANTS`)."""
    if variant == "BK-DAS":
        return bk_das(graph, collect=collect, cache=cache)
    if variant == "BK-GMS-DEG":
        return bron_kerbosch(graph, "DEG", set_cls, collect=collect,
                             cache=cache)
    if variant == "BK-GMS-DGR":
        return bron_kerbosch(graph, "DGR", set_cls, collect=collect,
                             cache=cache)
    if variant == "BK-GMS-ADG":
        return bron_kerbosch(graph, "ADG", set_cls, collect=collect,
                             cache=cache)
    if variant == "BK-GMS-ADG-S":
        return bron_kerbosch(graph, "ADG", set_cls, subgraph_opt=True,
                             collect=collect, cache=cache)
    raise ValueError(f"unknown BK variant {variant!r}; known: {BK_VARIANTS}")
