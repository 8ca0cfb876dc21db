"""The GMS set-algebra interface (paper section 5.1, Listing 1).

The ``Set`` interface is the central modularity device of GraphMineSuite:
graph mining algorithms are written against this interface, and any concrete
set representation (sorted array, dense bitvector, roaring bitmap, hash
table) can be plugged in without touching algorithm code — the paper's
``5+`` modularity level.

The Python rendering below keeps the exact method surface of Listing 1:

===========================  =============================================
Listing 1 (C++)              This module
===========================  =============================================
``diff`` / ``diff_inplace``  :meth:`SetBase.diff` / :meth:`SetBase.diff_inplace`
``intersect`` (+ ``_count``  :meth:`SetBase.intersect`,
/ ``_inplace``)              :meth:`SetBase.intersect_count`,
                             :meth:`SetBase.intersect_inplace`
``union`` (+ ``_count`` /    :meth:`SetBase.union`, :meth:`SetBase.union_count`,
``_inplace``)                :meth:`SetBase.union_inplace`
``contains``                 :meth:`SetBase.contains` (and ``in``)
``add`` / ``remove``         :meth:`SetBase.add` / :meth:`SetBase.remove`
``cardinality``              :meth:`SetBase.cardinality` (and ``len``)
``Range``                    :meth:`SetBase.range`
``clone``                    :meth:`SetBase.clone`
``toArray``                  :meth:`SetBase.to_array` (and
                             :meth:`SetBase.members`, as a list)
``begin``/``end`` iterators  :meth:`SetBase.__iter__`
``operator==`` / ``!=``      :meth:`SetBase.__eq__`
(SISA extension)             :meth:`SetBase.intersect_count_many`: one
                             bulk instruction, ``Σ_v |A ∩ N(v)|``
(SISA extension)             :meth:`SetBase.intersect_count_pairs`: one
                             instruction per kernel pass over a whole
                             graph, ``Σ_i |N(u_i) ∩ N(v_i)|``
(SISA extension)             :meth:`SetBase.intersect_count_argmax`: the
                             Tomita pivot scan as one instruction,
                             the first ``argmax_v |A ∩ N(v)|``
(SISA extension)             :meth:`SetBase.pivot_branch`: BK's whole
                             Tomita step (pivot, candidate diff, the
                             branch loop) as one instruction
(SISA extension)             :meth:`SetBase.maximal_clique_count`: BK's
                             whole recursion below ``P`` and ``X`` as
                             one instruction, ``(cliques, calls, depth)``
(SISA extension)             :meth:`SetBase.clique_count`: the
                             kClist recursion as one instruction,
                             the ``levels``-cliques inside ``A``
(SISA extension)             :meth:`SetBase.clique_branch`: its
                             branch loop, one child count per yield
(SISA extension)             :meth:`SetBase.from_csr`: every
                             neighborhood of a CSR graph in one call
===========================  =============================================

Set elements are vertex IDs, i.e. non-negative integers (``GMS::NodeId``).
Binary operations accept a set of the *same* concrete class (the fast path)
or of any other class, in which case the argument is converted first — this
keeps mixed-representation experiments possible, exactly like the C++
platform's implicit conversions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SetBase"]


class SetBase(ABC):
    """Abstract base for all GMS set representations.

    Concrete subclasses must implement the small kernel of abstract methods;
    everything else has a generic (representation-independent) default that
    subclasses override when a faster native routine exists.
    """

    __slots__ = ()

    #: Whether every operation returns exact results.  Probabilistic
    #: representations (:mod:`repro.approx`) set this to ``False``; they
    #: still keep an exact member store (iteration, ``cardinality``,
    #: ``to_array`` and equality stay exact) but their membership probes
    #: and ``*_count`` methods are sketch estimators with one-sided or
    #: bounded error.  Test matrices branch on this flag: exact classes get
    #: strict equality checks, approximate ones containment/bound checks.
    IS_EXACT = True

    # ------------------------------------------------------------------
    # Constructors (Listing 1, part 2)
    # ------------------------------------------------------------------
    @classmethod
    @abstractmethod
    def from_iterable(cls, elements: Iterable[int]) -> "SetBase":
        """Build a set from arbitrary (possibly unsorted) elements."""

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "SetBase":
        """Build a set from a sorted, duplicate-free integer array.

        This is the fast path used when neighborhoods are loaded out of a
        CSR representation; the default simply defers to
        :meth:`from_iterable`.
        """
        return cls.from_iterable(array)

    @classmethod
    def from_csr(cls, offsets: np.ndarray, targets: np.ndarray) -> list:
        """Build one set per ``targets[offsets[v]:offsets[v + 1]]``.

        The bulk form of :meth:`from_sorted_array` that materializing a
        :class:`~repro.graph.set_graph.SetGraph` calls: every
        neighborhood of a CSR graph (or of its oriented DAG) at once.
        The default is the per-vertex loop; a backend's fast path must
        build exactly the sets that loop builds.
        """
        build = cls.from_sorted_array
        return [build(targets[offsets[v]:offsets[v + 1]])
                for v in range(len(offsets) - 1)]

    @classmethod
    def empty(cls) -> "SetBase":
        """Return the empty set — ``Set()`` in Listing 1."""
        return cls.from_iterable(())

    @classmethod
    def single(cls, element: int) -> "SetBase":
        """Return the single-element set ``{element}``."""
        return cls.from_iterable((element,))

    @classmethod
    def range(cls, bound: int) -> "SetBase":
        """Return ``{0, 1, ..., bound - 1}`` — ``Set::Range`` in Listing 1."""
        return cls.from_sorted_array(np.arange(bound, dtype=np.int64))

    # ------------------------------------------------------------------
    # Core set-algebra methods (Listing 1, part 1)
    # ------------------------------------------------------------------
    @abstractmethod
    def intersect(self, other: "SetBase") -> "SetBase":
        """Return a new set ``A ∩ B``."""

    @abstractmethod
    def union(self, other: "SetBase") -> "SetBase":
        """Return a new set ``A ∪ B``."""

    @abstractmethod
    def diff(self, other: "SetBase") -> "SetBase":
        """Return a new set ``A \\ B``."""

    @abstractmethod
    def contains(self, element: int) -> bool:
        """Return whether ``element ∈ A``."""

    @abstractmethod
    def add(self, element: int) -> None:
        """Update ``A = A ∪ {element}`` in place."""

    @abstractmethod
    def remove(self, element: int) -> None:
        """Update ``A = A \\ {element}`` in place (no-op when absent)."""

    @abstractmethod
    def cardinality(self) -> int:
        """Return ``|A|``."""

    @abstractmethod
    def __iter__(self) -> Iterator[int]:
        """Iterate elements in ascending order."""

    # -- count variants: avoid materializing the result (paper section 5.1)
    def intersect_count(self, other: "SetBase") -> int:
        """Return ``|A ∩ B|`` without building the intersection."""
        return self.intersect(other).cardinality()

    def union_count(self, other: "SetBase") -> int:
        """Return ``|A ∪ B|`` without building the union."""
        return self.union(other).cardinality()

    def diff_count(self, other: "SetBase") -> int:
        """Return ``|A \\ B|`` without building the difference."""
        return self.diff(other).cardinality()

    def intersect_count_many(self, graph, vertices: Sequence[int]) -> int:
        """Return ``Σ_{v ∈ vertices} |A ∩ graph[v]|`` — one bulk instruction.

        SISA's set instructions take many operands at once; this is the
        form the innermost mining loops issue (``A`` against the
        neighborhoods of every vertex in a row).  *graph* maps a vertex to
        its neighborhood set (a :class:`~repro.graph.set_graph.SetGraph`
        or any indexable adjacency) and *vertices* may repeat.  The
        default is the per-operation loop, so results and counters are
        those of ``len(vertices)`` :meth:`intersect_count` calls; a
        backend's fast path must account exactly the same.
        """
        count = self.intersect_count
        return sum(count(graph[v]) for v in vertices)

    @classmethod
    def intersect_count_pairs(cls, graph, us: np.ndarray,
                              vs: np.ndarray) -> int:
        """Return ``Σ_i |graph[us[i]] ∩ graph[vs[i]]|`` — one instruction
        per kernel pass.

        The graph-granularity form of :meth:`intersect_count_many` that
        :meth:`SetGraph.intersect_count_pairs
        <repro.graph.set_graph.SetGraph.intersect_count_pairs>` issues on
        its ``set_cls``: a triangle-counting pass over all arcs at once.
        *us* and *vs* are equal-length integer arrays; pairs may repeat,
        have ``u == v`` or not be arcs.  The default groups each run of
        equal ``us[i]`` into one ``graph[u].intersect_count_many(graph,
        vs[run])`` call, so a backend keeps its bulk instruction and its
        counters.  A fast path must return the same count and account
        exactly what ``len(us)`` :meth:`intersect_count` calls record.
        """
        us = np.asarray(us, dtype=np.int64)
        if len(us) == 0:
            return 0
        bounds = [0]
        bounds += (np.flatnonzero(us[1:] != us[:-1]) + 1).tolist()
        heads = us[bounds].tolist()
        bounds.append(len(us))
        targets = np.asarray(vs, dtype=np.int64).tolist()
        total = 0
        for u, start, stop in zip(heads, bounds, bounds[1:]):
            total += graph[u].intersect_count_many(graph,
                                                   targets[start:stop])
        return total

    def intersect_count_argmax(self, graph, vertices: Sequence[int]) -> int:
        """Return the first ``v`` in *vertices* maximizing ``|A ∩ graph[v]|``.

        The Tomita pivot scan of Bron–Kerbosch as one bulk instruction;
        ``-1`` when *vertices* is empty.  Operands are those of
        :meth:`intersect_count_many`, and so is the contract: the
        default is the per-operation loop (a strictly greater count
        replaces the best, so ties keep the earliest vertex), and a
        backend's fast path must pick the same vertex and account
        exactly what ``len(vertices)`` :meth:`intersect_count` calls do.
        """
        best_v, best = -1, -1
        count = self.intersect_count
        for v in vertices:
            c = count(graph[v])
            if c > best:
                best_v, best = v, c
        return best_v

    def pivot_branch(
        self, X: "SetBase", graph, pivot: Optional[int] = None,
    ) -> Iterator[Tuple[int, "SetBase", "SetBase"]]:
        """BK's Tomita step as one bulk instruction, with ``P = self``.

        Picks the pivot ``u ∈ P ∪ X`` maximizing ``|P ∩ graph[u]|`` with
        one :meth:`intersect_count_argmax` over ``P``'s members and then
        ``X``'s (ties keep the first), or takes the *pivot* given, and
        yields ``(v, P ∩ graph[v], X ∩ graph[v])`` for each ``v`` of
        ``P \\ graph[pivot]`` in ascending order.  When the consumer
        resumes it after a child, it moves ``v`` from ``P`` to ``X``, so
        both are current after every child.  Nothing is yielded when
        ``P ∪ X`` is empty.  *graph* maps a vertex to its neighborhood,
        as for :meth:`intersect_count_many`.

        The default is the per-operation sequence: the scan, one
        :meth:`diff`, and per child two :meth:`intersect` calls, then
        :meth:`remove` and :meth:`add`.  A backend's fast path must yield
        the same children in the same order and account exactly what
        that sequence records.
        """
        P = self
        if pivot is None:
            pivot = P.intersect_count_argmax(
                graph, P.members() + X.members())
            if pivot < 0:
                return
        for v in P.diff(graph[pivot]).members():
            neighbors = graph[v]
            yield v, P.intersect(neighbors), X.intersect(neighbors)
            P.remove(v)
            X.add(v)

    def maximal_clique_count(
        self, X: "SetBase", graph,
    ) -> Tuple[int, int, int]:
        """BK's whole Tomita recursion below ``P = self`` and *X* as one
        bulk instruction: ``(cliques, calls, depth)``.

        ``cliques`` counts the leaves, the calls whose ``P`` and ``X``
        are both empty; ``calls`` counts the BK-Pivot calls, this one
        included; ``depth`` is the most vertices a counted clique adds
        to ``R`` (0 when this call is itself a leaf, and when no clique
        is counted).  *graph* maps a vertex to its neighborhood, as for
        :meth:`pivot_branch`, and no vertex may be its own neighbor.

        The default is the per-step recursion: one :meth:`pivot_branch`
        per call that is no leaf, and this instruction on each child.
        It leaves ``P`` and ``X`` as :meth:`pivot_branch` does.  A
        backend's fast path must return the same triple, leave ``P`` and
        ``X`` the same and account exactly what that recursion records.
        """
        if self.is_empty() and X.is_empty():
            return 1, 1, 0
        cliques, calls, depth = 0, 1, 0
        for _, P_v, X_v in self.pivot_branch(X, graph):
            found, below, deepest = P_v.maximal_clique_count(X_v, graph)
            cliques += found
            calls += below
            if found and deepest >= depth:
                depth = deepest + 1
        return cliques, calls, depth

    def clique_count(self, graph, levels: int) -> int:
        """Return the number of ``levels``-vertex cliques of *graph* in ``A``.

        One kClist step (paper section 6.3, Listing 7) as one bulk
        instruction: ``|A|`` at ``levels == 1``, one
        :meth:`intersect_count_many` over A's members at ``levels == 2``,
        and deeper ``Σ_{v ∈ A} (A ∩ graph[v]).clique_count(levels - 1)``,
        the sum of what :meth:`clique_branch` yields.  *graph* maps a
        vertex to its (oriented) neighborhood, as for
        :meth:`intersect_count_many`.

        The default is the per-operation recursion, the loop of
        :meth:`clique_branch`'s default without a generator: one child
        set per call, built by the first child's :meth:`intersect` and
        refilled for each later sibling by :meth:`intersect_assign`, and
        no recursion below an empty child.  A backend's fast path must
        return the same count and account exactly what that recursion
        records.
        """
        if levels == 1:
            return self.cardinality()
        if levels == 2:
            return self.intersect_count_many(graph, self.members())
        # Not sum(self.clique_branch(...)): a generator per call measured
        # ~5% slower at k = 5.
        total = 0
        child = None
        for v in self.members():
            if child is None:
                child = self.intersect(graph[v])
            else:
                child.intersect_assign(self, graph[v])
            if not child.is_empty():
                total += child.clique_count(graph, levels - 1)
        return total

    def clique_branch(self, graph, levels: int) -> Iterator[int]:
        """Yield ``(A ∩ graph[v]).clique_count(levels)`` for each ``v`` of
        ``A`` in ascending order (``A.intersect_count(graph[v])`` at
        ``levels == 1``).

        Each child is computed only when the consumer resumes the
        generator, so the time between two yields is that child's work:
        one edge-parallel kClist task per yield.  The default keeps one
        child set for the whole loop, as :meth:`clique_count`'s does, and
        an empty child yields 0 without recursing.  A backend's fast path
        must yield the same counts and account exactly what the default
        records up to every yield.
        """
        members = self.members()
        if levels == 1:
            count = self.intersect_count
            for v in members:
                yield count(graph[v])
            return
        child = None
        for v in members:
            if child is None:
                child = self.intersect(graph[v])
            else:
                child.intersect_assign(self, graph[v])
            yield 0 if child.is_empty() else child.clique_count(graph, levels)

    # -- in-place variants: avoid excessive data copying (paper section 5.1)
    def intersect_inplace(self, other: "SetBase") -> None:
        """Update ``A = A ∩ B``."""
        self._replace_with(self.intersect(other))

    def union_inplace(self, other: "SetBase") -> None:
        """Update ``A = A ∪ B``."""
        self._replace_with(self.union(other))

    def diff_inplace(self, other: "SetBase") -> None:
        """Update ``A = A \\ B``."""
        self._replace_with(self.diff(other))

    def intersect_assign(self, a: "SetBase", b: "SetBase") -> None:
        """Update ``self = a ∩ b`` — the fused form of
        ``assign(a); intersect_inplace(b)``.

        The kClist step (:meth:`clique_branch`) refills one child set from
        the parent candidates and a neighborhood for every sibling;
        fusing the two steps lets backends skip materializing the
        intermediate copy of ``a``.  The default is the unfused pair, so
        the fusion is purely an optimization hook — counter recording and
        results are identical either way.
        """
        self.assign(a)
        self.intersect_inplace(b)

    def diff_element(self, element: int) -> "SetBase":
        """Return a new set ``A \\ {element}`` (Listing 1 overload)."""
        result = self.clone()
        result.remove(element)
        return result

    def union_element(self, element: int) -> "SetBase":
        """Return a new set ``A ∪ {element}`` (Listing 1 overload)."""
        result = self.clone()
        result.add(element)
        return result

    def assign(self, other: "SetBase") -> None:
        """Overwrite this set's contents with *other*'s (``A = B``).

        The buffer-reuse primitive of :meth:`intersect_assign`'s default:
        a reused set is ``assign``-ed from the parent candidates and then
        shrunk with :meth:`intersect_inplace`, so the live memory stays
        bounded by ``Σ_i |C_i|`` instead of allocating a fresh set per
        visited candidate.
        """
        self._replace_with(self._coerce(other))

    @abstractmethod
    def _replace_with(self, other: "SetBase") -> None:
        """Overwrite this set's payload with *other*'s (same class).

        *other* may be a live set (the default :meth:`assign`): a backend
        whose ``add``/``remove`` update storage in place overrides
        :meth:`assign` to copy it, so ``A = B`` never shares it.
        """

    # ------------------------------------------------------------------
    # Other methods (Listing 1, part 3)
    # ------------------------------------------------------------------
    def clone(self) -> "SetBase":
        """Return a deep copy (copy constructors are disabled, like in GMS)."""
        return type(self).from_sorted_array(self.to_array())

    def to_array(self) -> np.ndarray:
        """Return the elements as a sorted ``int64`` numpy array."""
        return np.fromiter(self, dtype=np.int64, count=self.cardinality())

    def members(self) -> list:
        """Return the elements as a new ascending Python list.

        What ``to_array().tolist()`` returns: the list kernels and the
        bulk instructions' defaults loop over.  A backend that holds its
        members in an array or a Python container overrides it to skip
        the copy ``to_array`` makes.
        """
        return self.to_array().tolist()

    def storage_bytes(self) -> int:
        """Approximate resident bytes of this set, for the memory analysis.

        The default is an ``int64`` array's 8 bytes per member; a backend
        with another layout overrides it with that layout's size.
        """
        return 8 * self.cardinality()

    def is_empty(self) -> bool:
        """Return whether the set has no elements."""
        return self.cardinality() == 0

    # ------------------------------------------------------------------
    # Python protocol sugar
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.cardinality()

    def __contains__(self, element: int) -> bool:
        return self.contains(int(element))

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetBase):
            return NotImplemented
        if self.cardinality() != other.cardinality():
            return False
        return bool(np.array_equal(self.to_array(), other.to_array()))

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:  # sets are mutable; identity hash like C++
        return id(self)

    def __and__(self, other: "SetBase") -> "SetBase":
        return self.intersect(other)

    def __or__(self, other: "SetBase") -> "SetBase":
        return self.union(other)

    def __sub__(self, other: "SetBase") -> "SetBase":
        return self.diff(other)

    def __repr__(self) -> str:
        preview = list(self)
        if len(preview) > 8:
            shown = ", ".join(str(x) for x in preview[:8])
            return f"{type(self).__name__}({{{shown}, ...}}, n={len(preview)})"
        shown = ", ".join(str(x) for x in preview)
        return f"{type(self).__name__}({{{shown}}})"

    # ------------------------------------------------------------------
    # Mixed-representation support
    # ------------------------------------------------------------------
    def _coerce(self, other: "SetBase") -> "SetBase":
        """Convert *other* to this set's class when classes differ."""
        if type(other) is type(self):
            return other
        return type(self).from_sorted_array(other.to_array())
