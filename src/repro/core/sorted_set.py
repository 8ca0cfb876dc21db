"""SortedSet — sorted integer-array set representation (paper section 5.2).

This mirrors the established CSR design where each vertex neighborhood is a
sorted, contiguous array of integers.  Bulk operations run on numpy arrays
(the Python stand-in for the vectorized merge loops of the C++ platform);
:mod:`repro.core.ops` additionally provides explicit *merge* and *galloping*
intersection kernels for the algorithm-choice experiments of section 6.5.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .counters import COUNTERS
from .interface import SetBase
from .ops import as_sorted_unique, member_mask_galloping

__all__ = ["SortedSet"]

_EMPTY = np.empty(0, dtype=np.int64)
#: Pairs per block, and probes per ``searchsorted``, of
#: :meth:`SortedSet.intersect_count_pairs`: a chunk then holds at most
#: ~8 int64 arrays of this length (4 MiB) next to the arc keys, however
#: many pairs a pass has.
_PAIR_CHUNK = 1 << 16


class SortedSet(SetBase):
    """A set stored as a sorted, duplicate-free ``int64`` numpy array."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray | None = None, *, _trusted: bool = False):
        if data is None:
            self._data = _EMPTY
        elif _trusted:
            self._data = data
        else:
            self._data = np.unique(np.asarray(data, dtype=np.int64))

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "SortedSet":
        arr = np.fromiter(elements, dtype=np.int64)
        return cls(np.unique(arr), _trusted=True)

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "SortedSet":
        # Validate-or-sort: an unsorted/duplicated input would silently
        # break every merge kernel downstream (sortedness is the invariant
        # they all binary-search against).
        return cls(as_sorted_unique(array), _trusted=True)

    # -- core algebra ---------------------------------------------------
    def intersect(self, other: SetBase) -> "SortedSet":
        b = self._coerce(other)
        COUNTERS.record_bulk(len(self._data) + len(b._data), 0)
        out = _intersect_arrays(self._data, b._data)
        COUNTERS.elements_written += len(out)
        return SortedSet(out, _trusted=True)

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        COUNTERS.record_bulk(len(self._data) + len(b._data), 0)
        return len(_intersect_arrays(self._data, b._data))

    def intersect_count_many(self, graph, vertices: Sequence[int]) -> int:
        # One membership test of every operand's members over a SetGraph
        # of SortedSets, accounted once for the whole call: exactly what
        # len(vertices) intersect_count calls record.  Any other receiver
        # or graph takes the per-operation default.
        n = len(vertices)
        if (n == 0 or type(self) is not SortedSet
                or getattr(graph, "set_cls", None) is not SortedSet):
            return super().intersect_count_many(graph, vertices)
        members, _ = self._bulk_members(graph, vertices)
        return int(np.count_nonzero(members))

    def intersect_count_argmax(self, graph, vertices: Sequence[int]) -> int:
        # The same membership test; each operand's count is the rise of
        # its running member count over its segment.
        n = len(vertices)
        if (n == 0 or type(self) is not SortedSet
                or getattr(graph, "set_cls", None) is not SortedSet):
            return super().intersect_count_argmax(graph, vertices)
        members, sizes = self._bulk_members(graph, vertices)
        hits = [0]
        hits += np.cumsum(members).tolist()
        best_v, best = -1, -1
        start = 0
        for v, size in zip(vertices, sizes):
            end = start + size
            c = hits[end] - hits[start]
            if c > best:
                best_v, best = v, c
            start = end
        return best_v

    @classmethod
    def intersect_count_pairs(cls, graph, us: np.ndarray,
                              vs: np.ndarray) -> int:
        # One join over a SetGraph of SortedSets: the concatenated
        # neighborhoods become the sorted arc keys u * base + w, and
        # every member w of each pair's smaller side, keyed for the
        # larger side, is one probe into them.  Accounted in one pass
        # over the pairs: exactly what len(us) intersect_count calls
        # record.  Any other class or graph takes the default.
        if (cls is not SortedSet
                or getattr(graph, "set_cls", None) is not SortedSet):
            return super().intersect_count_pairs(graph, us, vs)
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        sizes = np.array(graph.cardinalities, dtype=np.int64)
        keys, offsets, base = _arc_keys(graph.neighborhoods, sizes)
        count = read = 0
        for start in range(0, len(us), _PAIR_CHUNK):
            stop = start + _PAIR_CHUNK
            u, v = us[start:stop], vs[start:stop]
            su, sv = sizes[u], sizes[v]
            read += int(su.sum() + sv.sum())
            swap = su > sv
            small, large = np.where(swap, v, u), np.where(swap, u, v)
            count += _join_count(keys, offsets[small], (large - small) * base,
                                 np.minimum(su, sv))
        COUNTERS.record_bulk(read, 0, len(us))
        return count

    def _bulk_members(self, graph, vertices: Sequence[int]
                      ) -> Tuple[np.ndarray, list]:
        """Membership in ``A`` of the members of every ``graph[v]``,
        concatenated in *vertices* order, and the operand sizes; accounted
        as ``len(vertices)`` :meth:`intersect_count` calls."""
        a = self._data
        neighborhoods = graph.neighborhoods
        cardinalities = graph.cardinalities
        sizes = [cardinalities[v] for v in vertices]
        operands = np.concatenate([neighborhoods[v]._data for v in vertices])
        members = member_mask_galloping(operands, a)
        n = len(vertices)
        COUNTERS.record_bulk(n * len(a) + sum(sizes), 0, n)
        return members, sizes

    def intersect_inplace(self, other: SetBase) -> None:
        # One merge, rebound in place — skips the intermediate SortedSet
        # (and its copy) that the generic default would build.
        b = self._coerce(other)
        out = _intersect_arrays(self._data, b._data)
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        self._data = out

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: intersect straight into this set's slot,
        # skipping the copy of ``a`` the unfused assign would make.
        ca, cb = self._coerce(a), self._coerce(b)
        out = _intersect_arrays(ca._data, cb._data)
        COUNTERS.record_bulk(len(ca._data) + len(cb._data), len(out))
        self._data = out

    def union(self, other: SetBase) -> "SortedSet":
        b = self._coerce(other)
        out = np.union1d(self._data, b._data)
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return SortedSet(out, _trusted=True)

    def diff(self, other: SetBase) -> "SortedSet":
        # One binary-search membership mask of A's members in B, where
        # np.setdiff1d would run the generic np.isin.
        b = self._coerce(other)
        out = self._data[~member_mask_galloping(self._data, b._data)]
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return SortedSet(out, _trusted=True)

    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        idx = np.searchsorted(self._data, element)
        return bool(idx < len(self._data) and self._data[idx] == element)

    # add and remove splice with slices: np.insert/np.delete would run
    # numpy's generic axis machinery for one copy around one index.
    def add(self, element: int) -> None:
        COUNTERS.record_point()
        data = self._data
        idx = int(data.searchsorted(element))
        if idx < len(data) and data[idx] == element:
            return
        out = np.empty(len(data) + 1, dtype=np.int64)
        out[:idx] = data[:idx]
        out[idx] = element
        out[idx + 1:] = data[idx:]
        self._data = out
        COUNTERS.elements_written += 1

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        data = self._data
        idx = int(data.searchsorted(element))
        if idx < len(data) and data[idx] == element:
            self._data = np.concatenate((data[:idx], data[idx + 1:]))
            COUNTERS.elements_written += 1

    def cardinality(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data.tolist())

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        return self._data.copy()

    def members(self) -> list:
        return self._data.tolist()

    def clone(self) -> "SortedSet":
        return SortedSet(self._data.copy(), _trusted=True)

    def _replace_with(self, other: SetBase) -> None:
        self._data = self._coerce(other)._data

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SortedSet):
            return bool(np.array_equal(self._data, other._data))
        return super().__eq__(other)

    __hash__ = SetBase.__hash__


def _overlaps(offsets: np.ndarray, lo: int, hi: int
              ) -> Tuple[int, int, np.ndarray]:
    """The segments ``[offsets[i], offsets[i + 1])`` that overlap
    ``[lo, hi)``: ``(first, last, overlap lengths)`` of segments
    ``first .. last - 1``, where segment ``first`` may begin before
    ``lo`` and segment ``last - 1`` end after ``hi``."""
    first = int(offsets.searchsorted(lo, "right")) - 1
    last = int(offsets.searchsorted(hi, "left"))
    return first, last, (np.minimum(offsets[first + 1:last + 1], hi)
                         - np.maximum(offsets[first:last], lo))


def _arc_keys(neighborhoods: Sequence["SortedSet"], sizes: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(keys, offsets, base)``: the members of every neighborhood as
    sorted unique keys ``u * base + w`` in CSR order, with ``base`` above
    every member and vertex, and the CSR offsets of each ``u``'s keys.

    The sources are added chunk by chunk, so building takes the key
    array plus one chunk."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    keys = np.empty(int(offsets[-1]), dtype=np.int64)
    if not len(keys):
        return keys, offsets, len(sizes)
    np.concatenate([s._data for s in neighborhoods], out=keys)
    base = max(len(sizes), int(keys.max()) + 1)
    for lo in range(0, len(keys), _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, len(keys))
        first, last, counts = _overlaps(offsets, lo, hi)
        keys[lo:hi] += np.repeat(
            np.arange(first, last, dtype=np.int64) * base, counts)
    return keys, offsets, base


def _join_count(keys: np.ndarray, starts: np.ndarray, shifts: np.ndarray,
                lengths: np.ndarray) -> int:
    """Hits of the probes ``keys[starts[i] + j] + shifts[i]`` for ``j <
    lengths[i]`` in the sorted unique *keys*, one ``searchsorted`` per
    chunk of at most :data:`_PAIR_CHUNK` probes."""
    bounds = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    total = int(bounds[-1])
    hits = 0
    for lo in range(0, total, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, total)
        first, last, counts = _overlaps(bounds, lo, hi)
        # Probe p (of all probes) belongs to pair i: key starts[i] + p -
        # bounds[i], shifted by shifts[i].
        index = np.repeat(starts[first:last] - bounds[first:last] + lo,
                          counts)
        index += np.arange(hi - lo, dtype=np.int64)
        probes = keys[index]
        probes += np.repeat(shifts[first:last], counts)
        # Sorted probes walk the keys in one direction: fewer cache
        # misses than pair order (tc at 5·10⁵ edges ran 6-25% faster).
        probes.sort()
        found = keys.searchsorted(probes)
        np.minimum(found, len(keys) - 1, out=found)
        hits += int(np.count_nonzero(keys[found] == probes))
    return hits


def _intersect_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted unique arrays, adaptively.

    When one side is much smaller, a galloping (binary-search) probe of the
    larger side wins — ``O(|small| log |large|)`` versus ``O(|a| + |b|)`` for
    the merge; this is the adaptive strategy the paper describes for
    vertex-similarity kernels (section 6.5).  An empty side gives the
    empty array; a pair whose larger side is at most 32 times the smaller
    merges, and any other pair gallops.
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if not len(small):
        return _EMPTY
    if len(large) <= 32 * len(small):
        return np.intersect1d(a, b, assume_unique=True)
    idx = np.searchsorted(large, small)
    idx[idx == len(large)] = len(large) - 1
    return small[large[idx] == small]
