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
from .ops import as_sorted_unique, popcount, popcount_rows

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
#: :meth:`BitSet.clique_count_arcs` chunks its wedges by the same budget
#: (on livemocha-mini's DGR DAG its pass took 2.8 ms at 4 MiB against
#: 4.1 ms at 1 MiB) and :meth:`BitSet.intersect_count_pairs` its
#: gathered rows by a quarter of it.
_CHUNK_BYTES = 4 << 20
#: Row width, in 64-bit words, above which
#: :meth:`BitSet.intersect_count_pairs` takes the per-vertex default.
#: The fast path ANDs whole rows, the big-int loop only each pair's own
#: bit lengths, so the loop catches up as rows widen: on holme_kim(n, 5,
#: 0.5) rank-merge tc measured 35.9 -> 31.7 ms at 125 words (n = 8,000)
#: and 66.4 -> 69.6 ms at 188 words (2 vCPUs, best of 5).
_PAIR_MAX_WORDS = 128
#: Row-matrix bytes (rows × width × 8) above which it takes the default
#: too: the square matrix at the width cap, 8,192 rows of 128 words.  A
#: graph whose rows stay narrow (a DAG whose arcs all point to low IDs,
#: trailing isolated vertices) still packs at most this much.  Both caps
#: hold for :meth:`BitSet.clique_count_arcs` too.
_PAIR_MAX_BYTES = 8 << 20
#: Scratch bytes :meth:`BitSet.clique_count_arcs` spends per wedge
#: ``(arc, w)`` besides the rows a triangle gathers: its int64 arc,
#: position, target and row indices, its byte and its mask, and a share
#: of its arc's int64 temporaries (every arc has a wedge).
_WEDGE_SCRATCH_BYTES = 64


def _row_matrix(graph) -> Optional[np.ndarray]:
    """The big ints of *graph*'s neighborhoods packed into a ``uint64``
    row matrix (one ``to_bytes`` per vertex, rows as wide as the
    widest), or ``None`` when that width exceeds :data:`_PAIR_MAX_WORDS`
    or the matrix :data:`_PAIR_MAX_BYTES`.  Built once per ``SetGraph``
    through :meth:`~repro.graph.set_graph.SetGraph.derived`."""
    bits = [s._bits for s in graph.neighborhoods]
    longest = max((b.bit_length() for b in bits), default=0)
    width = max((longest + _WORD_BITS - 1) // _WORD_BITS, 1)
    row = 8 * width
    if width > _PAIR_MAX_WORDS or len(bits) * row > _PAIR_MAX_BYTES:
        return None
    matrix = np.zeros((len(bits), width), dtype=np.uint64)
    view = memoryview(matrix).cast("B")
    for v, b in enumerate(bits):
        view[v * row:(v + 1) * row] = b.to_bytes(row, "little")
    return matrix


def _sizes(graph) -> np.ndarray:
    """*graph*'s cardinalities as an ``int64`` array, kept with its row
    matrix through :meth:`~repro.graph.set_graph.SetGraph.derived`."""
    return np.array(graph.cardinalities, dtype=np.int64)


def _arc_cliques(matrix: np.ndarray, sizes: np.ndarray, offsets: np.ndarray,
                 targets: np.ndarray, start: int, stop: int,
                 counts: np.ndarray, reads: np.ndarray) -> int:
    """Add to *counts* and *reads* the arcs of sources ``start..stop-1``
    (one :meth:`BitSet.clique_count_arcs` chunk) and return the chunk's
    ``Σ|c|``, each arc ``(u, v)`` accounted as :meth:`BitSet.clique_branch`
    accounts its child ``c = N⁺(u) ∩ N⁺(v)`` at level 2."""
    degrees = np.diff(offsets[start:stop + 1])
    arc_u = np.repeat(np.arange(start, stop), degrees)
    arc_v = targets[offsets[start]:offsets[stop]]
    fan = np.repeat(degrees, degrees)
    # Wedge j of arc i is (i, w) for the j-th w of N⁺(u): its target
    # index is offsets[u] + j, the wedge's index shifted per arc.
    shift = offsets[arc_u] - (np.cumsum(fan) - fan)
    wedge_arc = np.repeat(np.arange(len(arc_v)), fan)
    w = targets[np.arange(len(wedge_arc)) + shift[wedge_arc]]
    # Bit w of row v is bit w & 7 of the matrix's byte 8·width·v + w >> 3.
    byte = (arc_v * matrix.strides[0])[wedge_arc] + (w >> 3)
    hit = (matrix.reshape(-1).view(np.uint8)[byte]
           >> (w & 7).astype(np.uint8)) & 1
    closed = np.flatnonzero(hit)
    tri_arc, tri_w = wedge_arc[closed], w[closed]
    found = np.bincount(tri_arc, minlength=len(arc_v))
    reads += sizes[arc_u] + sizes[arc_v] + found * found
    if len(tri_arc):
        tri_rows = matrix[arc_u[tri_arc]]
        tri_rows &= matrix[arc_v[tri_arc]]
        tri_rows &= matrix[tri_w]
        counts += np.bincount(tri_arc, weights=popcount_rows(tri_rows),
                              minlength=len(arc_v)).astype(np.int64)
        reads += np.bincount(tri_arc, weights=sizes[tri_w],
                             minlength=len(arc_v)).astype(np.int64)
    return int(found.sum())


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
    written)`` of ``BitSet(a).clique_count(graph, levels)`` for
    ``levels >= 2`` and ``a`` nonzero, where the counter fields sum what
    the default's intersections and ``intersect_count_many`` calls
    record (an empty child records nothing below its intersection)."""
    members = _members(a)
    size = len(members)
    count = 0
    read = size * size
    if levels == 2:
        for v in members:
            count += (a & neighborhoods[v]._bits).bit_count()
            read += cardinalities[v]
        return count, size, read, 0
    ops, written = size, 0
    for v in members:
        c = a & neighborhoods[v]._bits
        read += cardinalities[v]
        if c:
            sub = _clique_bits(c, levels - 1, neighborhoods, cardinalities)
            count += sub[0]
            ops += sub[1]
            read += sub[2]
            written += c.bit_count() + sub[3]
    return count, ops, read, written


def _tomita_bits(p: int, x: int, neighborhoods: list, cardinalities: list,
                 sums: list) -> tuple:
    """BK's Tomita recursion over raw big ints: ``(cliques, calls, depth,
    p, x)`` of ``BitSet(p).maximal_clique_count(BitSet(x), graph)`` for
    ``p | x`` nonzero, with the final ``P`` and ``X`` last.  Adds to
    *sums* each call's scan and diff (``n + 1`` set operations over its
    ``n`` listed members) and the reads and writes of the default's
    scans, diffs, intersections and moves."""
    listed = _members(p) + _members(x)
    n = len(listed)
    size, x_size = p.bit_count(), x.bit_count()
    read = (n + 1) * size
    best_v, best = -1, -1
    for u in listed:
        c = (p & neighborhoods[u]._bits).bit_count()
        if c > best:
            best_v, best = u, c
        read += cardinalities[u]
    branch = p & ~neighborhoods[best_v]._bits
    read += cardinalities[best_v]
    written = branch.bit_count()
    cliques = depth = 0
    calls = 1
    for v in _members(branch):
        # P ∩ N(v) and X ∩ N(v) on the current P and X, the child, then
        # P.remove(v) (v is in P) and X.add(v): one read each.
        b = neighborhoods[v]._bits
        p_v, x_v = p & b, x & b
        read += size + x_size + 2 * cardinalities[v] + 2
        written += p_v.bit_count() + x_v.bit_count() + 1
        if p_v or x_v:
            found, below, deepest, _, _ = _tomita_bits(
                p_v, x_v, neighborhoods, cardinalities, sums)
            cliques += found
            calls += below
            if found and deepest >= depth:
                depth = deepest + 1
        else:
            cliques += 1
            calls += 1
            depth = depth or 1
        bit = 1 << v
        p ^= bit
        size -= 1
        if not x & bit:
            x |= bit
            x_size += 1
            written += 1
    sums[0] += n + 1
    sums[1] += read
    sums[2] += written
    return cliques, calls, depth, p, x


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
        # Elements (cardinalities), like every other backend, not words.
        COUNTERS.record_bulk(self._bits.bit_count() + b._bits.bit_count(),
                             written)

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
        count = read = 0
        for v in vertices:
            count += (a_bits & neighborhoods[v]._bits).bit_count()
            read += cardinalities[v]
        COUNTERS.record_bulk(n * a_bits.bit_count() + read, 0, n)
        return count

    @classmethod
    def intersect_count_pairs(cls, graph, us: np.ndarray,
                              vs: np.ndarray) -> int:
        # One pass over a SetGraph of BitSets as numpy words: the big ints
        # packed into a row matrix (_row_matrix, built once per graph),
        # then the rows of each chunk of pairs gathered, ANDed and
        # popcounted.  Accounted in one call: exactly what len(us)
        # intersect_count calls record.  Any other class or graph, or
        # rows above the caps, takes the default.
        if (len(us) == 0 or cls is not BitSet
                or getattr(graph, "set_cls", None) is not BitSet):
            return super().intersect_count_pairs(graph, us, vs)
        matrix = graph.derived(_row_matrix)
        if matrix is None:
            return super().intersect_count_pairs(graph, us, vs)
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        count = 0
        # A chunk's two gathered operands take a quarter of the budget,
        # 512 KiB each.  Operands of half the budget each were freed back
        # to the OS and faulted in again on every pass: on holme_kim
        # graphs of 1,000-1,400 vertices and 16-22 words per row, 740-990
        # minor faults and 1.8-2.8 ms per pass, against 0-220 faults and
        # 0.8-1.0 ms at a quarter (2 shared vCPUs, median of 31).
        step = max(1, _CHUNK_BYTES // (64 * matrix.shape[1]))
        for start in range(0, len(us), step):
            rows = matrix[us[start:start + step]]
            rows &= matrix[vs[start:start + step]]
            count += popcount(rows)
        sizes = graph.derived(_sizes)
        uses = (np.bincount(us, minlength=len(sizes))
                + np.bincount(vs, minlength=len(sizes)))
        COUNTERS.record_bulk(int(sizes @ uses), 0, len(us))
        return count

    @classmethod
    def clique_count_arcs(cls, graph, levels: int) -> tuple:
        # kClist's level 2 (the 4-cliques of every arc) over a SetGraph of
        # BitSets with its arcs, as numpy words on the graph's _row_matrix
        # (the pair instruction's, built once per graph).  For
        # arc (u, v) the wedges w of N⁺(u) whose bit is set in row v are
        # c = N⁺(u) ∩ N⁺(v), ascending, and the arc counts
        # Σ_{w ∈ c} popcount(row u & row v & row w).  Chunked by ranges of
        # sources, and accounted in one call: exactly what the default's
        # clique_branch yields record.  Any other level, class or graph,
        # a graph without arcs, or rows above the caps takes the default.
        arcs = getattr(graph, "arcs", None)
        if (levels != 2 or cls is not BitSet or arcs is None
                or getattr(graph, "set_cls", None) is not BitSet
                or len(arcs[1]) == 0):
            return super().clique_count_arcs(graph, levels)
        matrix = graph.derived(_row_matrix)
        if matrix is None:
            return super().clique_count_arcs(graph, levels)
        offsets = np.asarray(arcs[0], dtype=np.int64)
        targets = np.asarray(arcs[1], dtype=np.int64)
        degrees = np.diff(offsets)
        sizes = graph.derived(_sizes)
        counts = np.zeros(len(targets), dtype=np.int64)
        reads = np.zeros(len(targets), dtype=np.int64)
        # A wedge closes at most one triangle, whose three gathered rows
        # peak at two at once.
        spent = np.cumsum(degrees * degrees * (_WEDGE_SCRATCH_BYTES
                                               + 16 * matrix.shape[1]))
        found = start = 0
        while start < len(degrees):
            budget = _CHUNK_BYTES + (spent[start - 1] if start else 0)
            stop = max(int(np.searchsorted(spent, budget, "right")),
                       start + 1)
            a, b = int(offsets[start]), int(offsets[stop])
            if a < b:
                found += _arc_cliques(matrix, sizes, offsets, targets, start,
                                      stop, counts[a:b], reads[a:b])
            start = stop
        COUNTERS.record_bulk(int(reads.sum()), found, len(targets) + found)
        return counts, reads

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
        read = 0
        for v in vertices:
            c = (a_bits & neighborhoods[v]._bits).bit_count()
            if c > best:
                best_v, best = v, c
            read += cardinalities[v]
        COUNTERS.record_bulk(n * a_bits.bit_count() + read, 0, n)
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
        for v in _members(branch):
            p, x, b = self._bits, X._bits, neighborhoods[v]._bits
            p_v, x_v = p & b, x & b
            COUNTERS.record_step(
                ops + 2, points,
                read + p.bit_count() + x.bit_count() + 2 * cardinalities[v],
                written + p_v.bit_count() + x_v.bit_count())
            yield v, BitSet(p_v), BitSet(x_v)
            # P.remove(v) and X.add(v): one read each, one write each
            # that changes its set.
            bit = 1 << v
            ops, points, read, written = 0, 2, 2, 0
            if self._bits & bit:
                self._bits ^= bit
                written += 1
            if not X._bits & bit:
                X._bits |= bit
                written += 1
        COUNTERS.record_step(ops, points, read, written)

    def maximal_clique_count(self, X: SetBase, graph):
        # BK's recursion over a SetGraph of BitSets on raw big ints, with
        # no generator and no set object per child, accounted with one
        # record call: every call but this one is a child, two
        # intersections and two point moves, and _tomita_bits sums the
        # rest of what the default's pivot_branch steps record.
        if (type(self) is not BitSet or type(X) is not BitSet
                or getattr(graph, "set_cls", None) is not BitSet):
            return super().maximal_clique_count(X, graph)
        if not self._bits and not X._bits:
            return 1, 1, 0
        sums = [0, 0, 0]
        cliques, calls, depth, self._bits, X._bits = _tomita_bits(
            self._bits, X._bits, graph.neighborhoods, graph.cardinalities,
            sums)
        scans, read, written = sums
        children = calls - 1
        COUNTERS.record_step(scans + 2 * children, 2 * children, read,
                             written)
        return cliques, calls, depth

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
        count, ops, read, written = _clique_bits(
            a, levels, graph.neighborhoods, graph.cardinalities)
        COUNTERS.record_bulk(read, written, ops)
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
        for v in _members(a):
            c = a & neighborhoods[v]._bits
            read = size + cardinalities[v]
            if levels == 1 or not c:
                COUNTERS.record_bulk(read, 0)
                yield c.bit_count()
                continue
            count, ops, sub_read, written = _clique_bits(
                c, levels, neighborhoods, cardinalities)
            COUNTERS.record_bulk(read + sub_read, c.bit_count() + written,
                                 ops + 1)
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
