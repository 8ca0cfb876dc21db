"""HashSet — hash-table set representation (paper section 5.2).

The C++ platform uses the Robin Hood hashing library; the closest
production-quality stand-in in Python is the built-in ``set``, which is an
open-addressing hash table implemented in C.  Hash sets give O(1) point
operations but unordered storage, so bulk operations pay a sort when a
sorted array is requested — the same trade-off as in the paper.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .counters import COUNTERS
from .interface import SetBase

__all__ = ["HashSet"]


def _clique_sets(a: set, levels: int, neighborhoods: list) -> tuple:
    """The kClist recursion over C-level sets: ``(count, ops, read,
    written)`` of ``HashSet(a).clique_count(graph, levels)`` for
    ``levels >= 2`` and ``a`` nonempty, where the counter fields sum what
    the default's intersections and ``intersect_count_many`` calls
    record (an empty child records nothing below its intersection).
    Sums do not depend on the order, so members are visited unsorted."""
    size = len(a)
    count = 0
    read = size * size
    if levels == 2:
        for v in a:
            b = neighborhoods[v]._data
            count += len(a & b)
            read += len(b)
        return count, size, read, 0
    ops, written = size, 0
    for v in a:
        b = neighborhoods[v]._data
        c = a & b
        read += len(b)
        if c:
            sub = _clique_sets(c, levels - 1, neighborhoods)
            count += sub[0]
            ops += sub[1]
            read += sub[2]
            written += len(c) + sub[3]
    return count, ops, read, written


class HashSet(SetBase):
    """A set stored in an open-addressing hash table."""

    __slots__ = ("_data",)

    def __init__(self, data: set | None = None):
        self._data: set = data if data is not None else set()

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "HashSet":
        return cls({int(e) for e in elements})

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "HashSet":
        return cls(set(np.asarray(array, dtype=np.int64).tolist()))

    # -- core algebra ---------------------------------------------------
    def intersect(self, other: SetBase) -> "HashSet":
        b = self._coerce(other)
        out = self._data & b._data
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return HashSet(out)

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        COUNTERS.record_bulk(len(self._data) + len(b._data), 0)
        return len(self._data & b._data)

    def intersect_count_many(self, graph, vertices: Sequence[int]) -> int:
        # C-level set intersections over a SetGraph of HashSets, accounted
        # once for the whole call: exactly what len(vertices)
        # intersect_count calls record.  Any other receiver or graph
        # takes the per-operation default.
        n = len(vertices)
        if (n == 0 or type(self) is not HashSet
                or getattr(graph, "set_cls", None) is not HashSet):
            return super().intersect_count_many(graph, vertices)
        neighborhoods = graph.neighborhoods
        a = self._data
        count = read = 0
        for v in vertices:
            b = neighborhoods[v]._data
            count += len(a & b)
            read += len(b)
        COUNTERS.record_bulk(n * len(a) + read, 0, n)
        return count

    def intersect_count_argmax(self, graph, vertices: Sequence[int]) -> int:
        # The pivot scan as the same loop, keeping the first best vertex.
        n = len(vertices)
        if (n == 0 or type(self) is not HashSet
                or getattr(graph, "set_cls", None) is not HashSet):
            return super().intersect_count_argmax(graph, vertices)
        neighborhoods = graph.neighborhoods
        a = self._data
        best_v, best = -1, -1
        read = 0
        for v in vertices:
            b = neighborhoods[v]._data
            c = len(a & b)
            if c > best:
                best_v, best = v, c
            read += len(b)
        COUNTERS.record_bulk(n * len(a) + read, 0, n)
        return best_v

    def pivot_branch(self, X: SetBase, graph, pivot: Optional[int] = None):
        # BK's Tomita step over a SetGraph of HashSets: the scan is the
        # intersect_count_argmax fast path; the diff and each child's two
        # C-level intersections, with the previous child's move from P
        # to X, take one record call, so the counters stay what the
        # default's operations record at every child.
        if (type(self) is not HashSet or type(X) is not HashSet
                or getattr(graph, "set_cls", None) is not HashSet):
            yield from super().pivot_branch(X, graph, pivot)
            return
        if pivot is None:
            pivot = self.intersect_count_argmax(
                graph, sorted(self._data) + sorted(X._data))
            if pivot < 0:
                return
        neighborhoods = graph.neighborhoods
        p, b = self._data, neighborhoods[pivot]._data
        branch = sorted(p - b)
        ops, points, read, written = 1, 0, len(p) + len(b), len(branch)
        for v in branch:
            p, x, b = self._data, X._data, neighborhoods[v]._data
            p_v, x_v = p & b, x & b
            COUNTERS.record_step(ops + 2, points,
                                 read + len(p) + len(x) + 2 * len(b),
                                 written + len(p_v) + len(x_v))
            yield v, HashSet(p_v), HashSet(x_v)
            # P.remove(v) and X.add(v): one read each, one write each
            # that changes its set.
            ops, points, read, written = 0, 2, 2, 0
            p, x = self._data, X._data
            if v in p:
                p.discard(v)
                written += 1
            if v not in x:
                x.add(v)
                written += 1
        COUNTERS.record_step(ops, points, read, written)

    def clique_count(self, graph, levels: int) -> int:
        # The kClist recursion over a SetGraph of HashSets on C-level
        # sets, accounted with one record call: exactly what the
        # default's intersections and intersect_count_many calls record.
        # Level 2 is one intersect_count_many call, as in the default.
        if (type(self) is not HashSet
                or getattr(graph, "set_cls", None) is not HashSet):
            return super().clique_count(graph, levels)
        a = self._data
        if levels == 1:
            return len(a)
        if levels == 2:
            return self.intersect_count_many(graph, list(a))
        if not a:
            return 0
        count, ops, read, written = _clique_sets(a, levels,
                                                 graph.neighborhoods)
        COUNTERS.record_bulk(read, written, ops)
        return count

    def clique_branch(self, graph, levels: int):
        # The branch loop of clique_count on C-level sets, with one
        # record call per child covering its intersection and its
        # subtree: what the default records up to every yield.
        if (type(self) is not HashSet
                or getattr(graph, "set_cls", None) is not HashSet):
            yield from super().clique_branch(graph, levels)
            return
        neighborhoods = graph.neighborhoods
        a = self._data
        size = len(a)
        for v in sorted(a):
            b = neighborhoods[v]._data
            c = a & b
            read = size + len(b)
            if levels == 1 or not c:
                COUNTERS.record_bulk(read, 0)
                yield len(c)
                continue
            count, ops, sub_read, written = _clique_sets(c, levels,
                                                         neighborhoods)
            COUNTERS.record_bulk(read + sub_read, len(c) + written, ops + 1)
            yield count

    def union(self, other: SetBase) -> "HashSet":
        b = self._coerce(other)
        out = self._data | b._data
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return HashSet(out)

    def diff(self, other: SetBase) -> "HashSet":
        b = self._coerce(other)
        out = self._data - b._data
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return HashSet(out)

    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        return element in self._data

    def add(self, element: int) -> None:
        COUNTERS.record_point()
        element = int(element)
        if element not in self._data:
            self._data.add(element)
            COUNTERS.elements_written += 1

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        element = int(element)
        if element in self._data:
            self._data.discard(element)
            COUNTERS.elements_written += 1

    def cardinality(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._data))

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        if not self._data:
            return np.empty(0, dtype=np.int64)
        arr = np.fromiter(self._data, dtype=np.int64, count=len(self._data))
        arr.sort()
        return arr

    def members(self) -> list:
        return sorted(self._data)

    def storage_bytes(self) -> int:
        """~32 bytes a slot at 2/3 fill, as a CPython set holds them."""
        return 32 * max(len(self._data), 8)

    def clone(self) -> "HashSet":
        return HashSet(set(self._data))

    def assign(self, other: SetBase) -> None:
        # A private copy: add/remove update the table in place.
        self._data = set(self._coerce(other)._data)

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: the intersection is a fresh table, so this set
        # adopts it without the copy of ``a`` that ``assign`` makes.
        ca, cb = self._coerce(a), self._coerce(b)
        out = ca._data & cb._data
        COUNTERS.record_bulk(len(ca._data) + len(cb._data), len(out))
        self._data = out

    def _replace_with(self, other: SetBase) -> None:
        self._data = self._coerce(other)._data

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HashSet):
            return self._data == other._data
        return super().__eq__(other)

    __hash__ = SetBase.__hash__
