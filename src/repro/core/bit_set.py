"""BitSet — dense bitvector set representation (paper section 5.2).

A dense bitvector of size ``n`` bits stores a set over ``{0, ..., n-1}``;
the ``i``-th set bit means vertex ``i`` is a member.  It is larger than a
sparse array for small sets but more space-efficient for very large ones,
and it supports O(1) insert/delete — which the paper highlights as useful
for the dynamic ``P``/``X``/``R`` sets of Bron–Kerbosch.

The implementation stores the bits in a single Python arbitrary-precision
integer: CPython big-int bitwise operations run over 30-bit limbs in C, so
``&``/``|``/``&~`` here play the role of the word-parallel SIMD loops of the
C++ platform.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .counters import COUNTERS
from .interface import SetBase
from .ops import as_sorted_unique

__all__ = ["BitSet"]

_WORD_BITS = 64
#: Popcount at or below which :meth:`BitSet.to_array` peels members in
#: Python instead of unpacking the bitvector with numpy (the two cost the
#: same at ~20-30 members on a 1,400-bit universe).
_SPARSE_MEMBERS = 16
#: Scratch bytes :meth:`BitSet.from_csr` spends per arc: its int64 byte
#: index, the int64 temporaries that compute it, and its uint8 bit.
_ARC_SCRATCH_BYTES = 24
#: Memory one :meth:`BitSet.from_csr` chunk may use: its byte buffer plus
#: its arcs' scratch.  A bulk build then peaks at the finished bitsets
#: plus about one chunk, where one unchunked buffer would double it.
_CHUNK_BYTES = 4 << 20


def _members(bits: int) -> list:
    """The members of the bitvector *bits*, ascending, as a list: what
    ``to_array().tolist()`` returns, without the array for tiny sets."""
    if bits.bit_count() > _SPARSE_MEMBERS:
        return BitSet(bits).to_array().tolist()
    members = []
    while bits:
        low = bits & -bits
        members.append(low.bit_length() - 1)
        bits ^= low
    return members


def _clique_bits(a: int, levels: int, neighborhoods: list,
                 cardinalities: list) -> tuple:
    """The kClist recursion over raw big ints: ``(count, ops, read,
    written, words)`` of ``BitSet(a).clique_count(graph, levels)`` for
    ``levels >= 2`` and ``a`` nonzero, where the counter fields sum what
    the default's intersections and ``intersect_count_many`` calls
    record (an empty child records nothing below its intersection)."""
    members = _members(a)
    size = len(members)
    count = 0
    read = size * size
    words = size * ((a.bit_length() + _WORD_BITS - 1) // _WORD_BITS)
    if levels == 2:
        for v in members:
            b = neighborhoods[v]._bits
            count += (a & b).bit_count()
            read += cardinalities[v]
            words += (b.bit_length() + _WORD_BITS - 1) // _WORD_BITS
        return count, size, read, 0, words
    ops, written = size, 0
    for v in members:
        b = neighborhoods[v]._bits
        c = a & b
        read += cardinalities[v]
        words += (b.bit_length() + _WORD_BITS - 1) // _WORD_BITS
        if c:
            sub = _clique_bits(c, levels - 1, neighborhoods, cardinalities)
            count += sub[0]
            ops += sub[1]
            read += sub[2]
            written += c.bit_count() + sub[3]
            words += sub[4]
    return count, ops, read, written, words


class BitSet(SetBase):
    """A set stored as a dense bitvector backed by one Python integer."""

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0):
        self._bits = bits

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "BitSet":
        bits = 0
        for e in elements:
            bits |= 1 << e
        return cls(bits)

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "BitSet":
        # Validate-or-sort first: the byte-buffer size below is read off
        # ``arr[-1]``, which is only the maximum when the array is sorted —
        # an unsorted input used to index past the buffer (or, with a large
        # element last, silently allocate for the wrong universe).
        arr = as_sorted_unique(array)
        if len(arr) == 0:
            return cls(0)
        # Pack via numpy: build a byte buffer with the relevant bits set.
        nbytes = (int(arr[-1]) >> 3) + 1
        buf = np.zeros(nbytes, dtype=np.uint8)
        np.bitwise_or.at(buf, arr >> 3, np.left_shift(1, arr & 7).astype(np.uint8))
        return cls(int.from_bytes(buf.tobytes(), "little"))

    @classmethod
    def from_csr(cls, offsets: np.ndarray, targets: np.ndarray) -> list:
        # Bulk construction, chunk by chunk of vertices: one vectorized
        # sortedness check, one scatter of every arc's bit into a shared
        # byte buffer, then one int.from_bytes per vertex over its slice.
        # Each bitvector spans (max >> 3) + 1 bytes, as in
        # from_sorted_array, so both build the same integers.
        offsets = np.asarray(offsets, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        counts = np.diff(offsets)
        nbytes = np.zeros(len(counts), dtype=np.int64)
        filled = counts > 0
        nbytes[filled] = (targets[offsets[1:][filled] - 1] >> 3) + 1
        spent = np.cumsum(nbytes + _ARC_SCRATCH_BYTES * counts)
        sets: list = []
        start = 0
        while start < len(counts):
            budget = _CHUNK_BYTES + (spent[start - 1] if start else 0)
            stop = max(int(np.searchsorted(spent, budget, "right")),
                       start + 1)
            sets += cls._from_csr_chunk(offsets[start:stop + 1], targets,
                                        nbytes[start:stop])
            start = stop
        return sets

    @classmethod
    def _from_csr_chunk(cls, offsets: np.ndarray, targets: np.ndarray,
                        nbytes: np.ndarray) -> list:
        arcs = targets[offsets[0]:offsets[-1]]
        local = offsets - offsets[0]
        # Pairs that straddle two neighborhoods need not rise; any other
        # fall takes the per-vertex validate-or-sort path.
        rising = arcs[1:] > arcs[:-1]
        bounds = local[1:-1]
        rising[bounds[(bounds > 0) & (bounds < len(arcs))] - 1] = True
        if not rising.all():
            return super().from_csr(local, arcs)
        ends = np.cumsum(nbytes)
        starts = ends - nbytes
        buf = np.zeros(int(ends[-1]), dtype=np.uint8)
        index = np.repeat(starts, np.diff(local))
        index += arcs >> 3
        np.bitwise_or.at(buf, index, np.left_shift(
            np.uint8(1), (arcs & 7).astype(np.uint8)))
        view = memoryview(buf)
        return [cls(int.from_bytes(view[a:b], "little"))
                for a, b in zip(starts.tolist(), ends.tolist())]

    @classmethod
    def range(cls, bound: int) -> "BitSet":
        return cls((1 << bound) - 1 if bound > 0 else 0)

    # -- core algebra ---------------------------------------------------
    def _record(self, b: "BitSet", written: int) -> None:
        # Normalized units: elements (cardinalities), like every other
        # backend — the old word-based recording made BitSet cells
        # incomparable.  The word-level cost moves to the scan attribution.
        a_bits, b_bits = self._bits, b._bits
        COUNTERS.record_bulk(
            a_bits.bit_count() + b_bits.bit_count(), written, 1, "bitset",
            (a_bits.bit_length() + _WORD_BITS - 1) // _WORD_BITS
            + (b_bits.bit_length() + _WORD_BITS - 1) // _WORD_BITS,
        )

    def intersect(self, other: SetBase) -> "BitSet":
        b = self._coerce(other)
        out = self._bits & b._bits
        self._record(b, out.bit_count())
        return BitSet(out)

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        self._record(b, 0)
        return (self._bits & b._bits).bit_count()

    def intersect_count_many(self, graph, vertices: Sequence[int]) -> int:
        # One loop of big-int ANDs over a SetGraph of BitSets, with
        # |graph[v]| read from its cardinalities, accounted once for the
        # whole call: exactly what len(vertices) intersect_count calls
        # record.  Any other receiver or graph takes the default.
        n = len(vertices)
        if (n == 0 or type(self) is not BitSet
                or getattr(graph, "set_cls", None) is not BitSet):
            return super().intersect_count_many(graph, vertices)
        neighborhoods = graph.neighborhoods
        cardinalities = graph.cardinalities
        a_bits = self._bits
        count = read = words = 0
        for v in vertices:
            b_bits = neighborhoods[v]._bits
            count += (a_bits & b_bits).bit_count()
            read += cardinalities[v]
            words += (b_bits.bit_length() + _WORD_BITS - 1) // _WORD_BITS
        COUNTERS.record_bulk(
            n * a_bits.bit_count() + read, 0, n, "bitset",
            n * ((a_bits.bit_length() + _WORD_BITS - 1) // _WORD_BITS)
            + words,
        )
        return count

    def intersect_count_argmax(self, graph, vertices: Sequence[int]) -> int:
        # The pivot scan as the same loop, keeping the first best vertex.
        n = len(vertices)
        if (n == 0 or type(self) is not BitSet
                or getattr(graph, "set_cls", None) is not BitSet):
            return super().intersect_count_argmax(graph, vertices)
        neighborhoods = graph.neighborhoods
        cardinalities = graph.cardinalities
        a_bits = self._bits
        best_v, best = -1, -1
        read = words = 0
        for v in vertices:
            b_bits = neighborhoods[v]._bits
            c = (a_bits & b_bits).bit_count()
            if c > best:
                best_v, best = v, c
            read += cardinalities[v]
            words += (b_bits.bit_length() + _WORD_BITS - 1) // _WORD_BITS
        COUNTERS.record_bulk(
            n * a_bits.bit_count() + read, 0, n, "bitset",
            n * ((a_bits.bit_length() + _WORD_BITS - 1) // _WORD_BITS)
            + words,
        )
        return best_v

    def pivot_branch(self, X: SetBase, graph, pivot: Optional[int] = None):
        # BK's Tomita step over a SetGraph of BitSets: the scan is the
        # intersect_count_argmax fast path; the diff and each child's two
        # ANDs, with the previous child's move from P to X, take one
        # record call, so the counters stay what the default's
        # operations record at every child.  P and X are re-read after
        # each child, as the default's operations would read them.
        if (type(self) is not BitSet or type(X) is not BitSet
                or getattr(graph, "set_cls", None) is not BitSet):
            yield from super().pivot_branch(X, graph, pivot)
            return
        if pivot is None:
            pivot = self.intersect_count_argmax(
                graph, _members(self._bits) + _members(X._bits))
            if pivot < 0:
                return
        neighborhoods = graph.neighborhoods
        cardinalities = graph.cardinalities
        p, b = self._bits, neighborhoods[pivot]._bits
        branch = p & ~b
        ops, points = 1, 0
        read = p.bit_count() + cardinalities[pivot]
        written = branch.bit_count()
        words = ((p.bit_length() + _WORD_BITS - 1) // _WORD_BITS
                 + (b.bit_length() + _WORD_BITS - 1) // _WORD_BITS)
        for v in _members(branch):
            p, x, b = self._bits, X._bits, neighborhoods[v]._bits
            p_v, x_v = p & b, x & b
            COUNTERS.record_step(
                ops + 2, points,
                read + p.bit_count() + x.bit_count() + 2 * cardinalities[v],
                written + p_v.bit_count() + x_v.bit_count(), "bitset",
                words + (p.bit_length() + _WORD_BITS - 1) // _WORD_BITS
                + (x.bit_length() + _WORD_BITS - 1) // _WORD_BITS
                + 2 * ((b.bit_length() + _WORD_BITS - 1) // _WORD_BITS))
            yield v, BitSet(p_v), BitSet(x_v)
            # P.remove(v) and X.add(v): one read each, one write each
            # that changes its set.
            bit = 1 << v
            ops, points, read, written, words = 0, 2, 2, 0, 0
            if self._bits & bit:
                self._bits ^= bit
                written += 1
            if not X._bits & bit:
                X._bits |= bit
                written += 1
        COUNTERS.record_step(ops, points, read, written, "bitset", words)

    def clique_count(self, graph, levels: int) -> int:
        # The kClist recursion over a SetGraph of BitSets on raw big
        # ints, accounted with one record call: exactly what the
        # default's intersections and intersect_count_many calls record.
        # Level 2 is one intersect_count_many call, as in the default.
        if (type(self) is not BitSet
                or getattr(graph, "set_cls", None) is not BitSet):
            return super().clique_count(graph, levels)
        a = self._bits
        if levels == 1:
            return a.bit_count()
        if levels == 2:
            return self.intersect_count_many(graph, _members(a))
        if not a:
            return 0
        count, ops, read, written, words = _clique_bits(
            a, levels, graph.neighborhoods, graph.cardinalities)
        COUNTERS.record_bulk(read, written, ops, "bitset", words)
        return count

    def clique_branch(self, graph, levels: int):
        # The branch loop of clique_count on raw big ints, with one
        # record call per child covering its intersection and its
        # subtree: what the default records up to every yield.
        if (type(self) is not BitSet
                or getattr(graph, "set_cls", None) is not BitSet):
            yield from super().clique_branch(graph, levels)
            return
        neighborhoods = graph.neighborhoods
        cardinalities = graph.cardinalities
        a = self._bits
        size = a.bit_count()
        words_a = (a.bit_length() + _WORD_BITS - 1) // _WORD_BITS
        for v in _members(a):
            b = neighborhoods[v]._bits
            c = a & b
            read = size + cardinalities[v]
            words = words_a + (b.bit_length() + _WORD_BITS - 1) // _WORD_BITS
            if levels == 1 or not c:
                COUNTERS.record_bulk(read, 0, 1, "bitset", words)
                yield c.bit_count()
                continue
            count, ops, sub_read, written, sub_words = _clique_bits(
                c, levels, neighborhoods, cardinalities)
            COUNTERS.record_bulk(read + sub_read, c.bit_count() + written,
                                 ops + 1, "bitset", words + sub_words)
            yield count

    def intersect_inplace(self, other: SetBase) -> None:
        # Genuinely in-place (no intermediate BitSet as in the generic
        # default): one big-int AND, rebound onto this set's payload.
        b = self._coerce(other)
        out = self._bits & b._bits
        self._record(b, out.bit_count())
        self._bits = out

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: one big-int AND straight into this payload.
        ca, cb = self._coerce(a), self._coerce(b)
        out = ca._bits & cb._bits
        ca._record(cb, out.bit_count())
        self._bits = out

    def union(self, other: SetBase) -> "BitSet":
        b = self._coerce(other)
        out = self._bits | b._bits
        self._record(b, out.bit_count())
        return BitSet(out)

    def diff(self, other: SetBase) -> "BitSet":
        b = self._coerce(other)
        out = self._bits & ~b._bits
        self._record(b, out.bit_count())
        return BitSet(out)

    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        return bool((self._bits >> element) & 1)

    def add(self, element: int) -> None:
        COUNTERS.record_point()
        bit = 1 << element
        if not self._bits & bit:
            self._bits |= bit
            COUNTERS.elements_written += 1

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        bit = 1 << element
        if self._bits & bit:
            self._bits &= ~bit
            COUNTERS.elements_written += 1

    def cardinality(self) -> int:
        return self._bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        bits = self._bits
        if bits.bit_count() <= _SPARSE_MEMBERS:
            # Peel members off the top in Python: unpacking the whole
            # bitvector costs a fixed ~10 µs however few bits are set.
            members = []
            while bits:
                top = bits.bit_length() - 1
                members.append(top)
                bits ^= 1 << top
            members.reverse()
            return np.array(members, dtype=np.int64)
        nbytes = (bits.bit_length() + 7) // 8
        buf = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.nonzero(np.unpackbits(buf, bitorder="little"))[0].astype(
            np.int64)

    def members(self) -> list:
        return _members(self._bits)

    def clone(self) -> "BitSet":
        return BitSet(self._bits)

    def _replace_with(self, other: SetBase) -> None:
        self._bits = self._coerce(other)._bits

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitSet):
            return self._bits == other._bits
        return super().__eq__(other)

    __hash__ = SetBase.__hash__

    # -- storage accounting (for the memory-consumption analysis) --------
    def storage_bytes(self) -> int:
        """The dense bitvector's bytes: ``n`` bits in the paper."""
        return max(self._bits.bit_length(), 1) // 8 + 1
