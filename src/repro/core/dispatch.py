"""Density-adaptive set dispatch (SISA's organization/algorithm choice).

The static platform picks **one** set class per graph (``set_cls``) and
**one** algorithm per method.  SISA's observation — and this module's job —
is that both choices are better made later and finer:

* **organization, per neighborhood**: a dense neighborhood also carries a
  bitmap, the Python big int of :class:`~repro.core.bit_set.BitSet`,
  whose intersections are limb-parallel ``&`` + ``bit_count``; a sparse
  one is the sorted array of :class:`~repro.core.sorted_set.SortedSet`
  alone.  :func:`choose_representation` makes the call from the density
  ``|S| / words(universe)`` — the bitmap is chosen exactly when it is no
  larger than the array it accompanies (``words ≤ |S|``), which also
  bounds its scan cost by the array's.
* **algorithm, per operation**: when both operands are dense, big-int
  ``&``/``|``/``& ~``; otherwise a tiny side probes the other's hash
  layout, a skewed pair (``|large| > ratio · |small|``) is intersected by
  galloping binary probes, and a balanced pair by the vectorized
  merge-path scan (:mod:`repro.core.ops`).
  :func:`choose_intersect_algorithm` owns the ratio.

:class:`AdaptiveSet` packages the policy as a drop-in
:class:`~repro.core.interface.SetBase` backend (registry name
``"adaptive"``).  It is a :class:`~repro.core.sorted_set.SortedSet`, so
the sorted array is always present and canonical: the constructors,
``contains``, iteration order, ``to_array``, equality and the point
updates are ``sorted``'s, and every result is **bit-identical** to
``sorted``'s.  It is selected by name like any other backend
(``--set-classes adaptive``, ``backend=adaptive`` on ``/query`` and the
REPL, ``Query.backend("adaptive")``), so the suite's exact-backend
cross-check pins it against ``sorted`` cell for cell.

Every operation records the normalized element counters plus a
``words_scanned`` attribution under the ``adaptive/<algorithm>`` keys, so
the ablation artifact can show where the cycles went.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .bit_set import BitSet
from .counters import COUNTERS
from .interface import SetBase
from .ops import (
    diff_merge,
    intersect_count_merge,
    intersect_merge,
    union_merge,
)
from .sorted_set import SortedSet

__all__ = [
    "GALLOP_RATIO",
    "AdaptiveSet",
    "choose_intersect_algorithm",
    "choose_representation",
]

#: Gallop when ``|large| > GALLOP_RATIO * |small|`` — the probe does
#: ``|small| * log|large|`` work versus the merge's ``|small| + |large|``,
#: so the break-even ratio is ~``log|large|``; 16 is a robust static
#: stand-in for the sizes mining kernels see.
GALLOP_RATIO = 16

#: Probe small arrays regardless of skew: below this size the merge-path
#: partitioning overhead exceeds the probes.
_SMALL_PROBE_MAX = 16

#: When the probing side is this small, hashed membership (the cached
#: hash-layout organization) beats even vectorized binary search — the
#: fixed per-call cost of a numpy kernel exceeds a handful of hash probes.
_HASH_PROBE_MAX = 24

_EMPTY = np.empty(0, dtype=np.int64)


def _words(bits: int) -> int:
    """64-bit words spanned by the bitmap *bits* (``words(max)``)."""
    return (bits.bit_length() + 63) >> 6


def choose_representation(cardinality: int, max_element: int) -> str:
    """``"bitmap"`` when the bitmap's words fit within the array footprint.

    ``words(max_element) ≤ cardinality`` means the bitmap is no larger
    (one 64-bit word per ``int64`` element) *and* a full bitmap scan
    touches no more words than an array scan — the density threshold at
    which carrying the bitmap is a pure win.
    """
    if cardinality == 0:
        return "array"
    return "bitmap" if (max_element >> 6) < cardinality else "array"


def choose_intersect_algorithm(len_a: int, len_b: int) -> str:
    """``"gallop"`` for skewed (or tiny) array pairs, ``"merge"`` else."""
    small, large = (len_a, len_b) if len_a <= len_b else (len_b, len_a)
    if small <= _SMALL_PROBE_MAX or large > GALLOP_RATIO * small:
        return "gallop"
    return "merge"


class AdaptiveSet(SortedSet):
    """``sorted``'s array plus an optional big-int bitmap, dispatched per
    operation.

    The bitmap (``_bits``, an ``int`` or ``None``) is carried when
    :func:`choose_representation` picks it, and operations dispatch on
    what both operands have:

    ========================  =============================================
    operand layouts           kernel
    ========================  =============================================
    bitmap × bitmap           big-int ``&``/``|``/``& ~`` (``bit_count``
                              for ``intersect_count``)
    tiny (≤ 24) × any         hashed probes of the other's members
    skewed arrays             galloping binary-search probes
    balanced arrays           vectorized merge-path scan
    ========================  =============================================

    The array is never written in place and an ``int`` is immutable, so
    ``assign``/``clone`` share both; point updates splice the array as
    ``sorted`` does, then set or clear the member's bit, and drop the
    bitmap when the density rule no longer holds.
    """

    __slots__ = ("_bits", "_hash", "_list")

    def __init__(self, data: Optional[np.ndarray] = None, *,
                 _trusted: bool = False):
        super().__init__(data, _trusted=_trusted)
        self._repack()

    # -- layout management ----------------------------------------------
    def _repack(self) -> None:
        """(Re)build or drop the bitmap per the density policy."""
        data = self._data
        if len(data) and choose_representation(
            len(data), int(data[-1])
        ) == "bitmap":
            self._bits = BitSet.from_sorted_array(data)._bits
        else:
            self._bits = None
        self._hash = None
        self._list = None

    def _adopt(self, data: np.ndarray, bits: Optional[int]) -> None:
        """Install a result payload, keeping the bitmap only while
        ``words(max) ≤ |S|``."""
        self._data = data
        self._bits = (bits if bits is not None and _words(bits) <= len(data)
                      else None)
        self._hash = None
        self._list = None

    def _hashed(self) -> set:
        """Lazily cached hash layout (invalidated with ``_data``).

        The cached set is never mutated in place, so aliasing it through
        ``assign``/``clone`` is as safe as aliasing ``_data`` itself.
        """
        h = self._hash
        if h is None:
            h = self._hash = set(self._data.tolist())
        return h

    def _listed(self) -> list:
        l = self._list
        if l is None:
            l = self._list = self._data.tolist()
        return l

    def representation(self) -> str:
        """The organization currently backing this set (observability)."""
        return "bitmap" if self._bits is not None else "array"

    # -- dispatched kernels ---------------------------------------------
    #
    # The intersection paths are the mining hot loop (every kclique / tc /
    # BK step lands here), so they are written for minimal per-call
    # overhead: one swap instead of min/max helpers, the gallop condition
    # inlined (same predicate as :func:`choose_intersect_algorithm`), and
    # `ndarray.searchsorted` methods instead of the `np.*` wrappers.

    def _intersect_payload(self, b: "AdaptiveSet"):
        """``(data, bits)`` of ``self ∩ b`` under the dispatch policy.

        When both operands are dense the result is one big-int ``&``,
        unpacked into its array, and it keeps its bitmap while dense, so
        chained intersections (the kclique recursion) stay on the bitmap
        path.
        """
        wa, wb = self._bits, b._bits
        if wa is not None and wb is not None:
            bits = wa & wb
            COUNTERS.record_scan("adaptive/bitmap",
                                 3 * min(_words(wa), _words(wb)))
            return BitSet(bits).to_array(), bits
        sa, sb = self, b
        da, db = sa._data, sb._data
        la, lb = len(da), len(db)
        if la > lb:
            sa, sb, da, db, la, lb = sb, sa, db, da, lb, la
        if la == 0:
            return _EMPTY, None
        if la <= _HASH_PROBE_MAX:
            COUNTERS.record_scan("adaptive/hash", la)
            data = np.array(list(filter(sb._hashed().__contains__,
                                        sa._listed())), dtype=np.int64)
        elif lb > la * GALLOP_RATIO:
            COUNTERS.record_scan("adaptive/gallop", la * lb.bit_length())
            data = da[db.searchsorted(da, "left")
                      != db.searchsorted(da, "right")]
        else:
            COUNTERS.record_scan("adaptive/merge", la + lb)
            data = intersect_merge(da, db)
        return data, None

    def intersect(self, other: SetBase) -> "AdaptiveSet":
        b = self._coerce(other)
        data, bits = self._intersect_payload(b)
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(data))
        return _result(data, bits)

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        sa, sb = self, b
        da, db = sa._data, sb._data
        la, lb = len(da), len(db)
        COUNTERS.record_bulk(la + lb, 0)
        if la > lb:
            sa, sb, da, db, la, lb = sb, sa, db, da, lb, la
        if la == 0:
            return 0
        wa, wb = sa._bits, sb._bits
        if wa is not None and wb is not None:
            COUNTERS.record_scan("adaptive/bitmap",
                                 2 * min(_words(wa), _words(wb)))
            return (wa & wb).bit_count()
        if la <= _HASH_PROBE_MAX:
            COUNTERS.record_scan("adaptive/hash", la)
            return sum(map(sb._hashed().__contains__, sa._listed()))
        if lb > la * GALLOP_RATIO:
            COUNTERS.record_scan("adaptive/gallop", la * lb.bit_length())
            return int(np.count_nonzero(
                db.searchsorted(da, "left") != db.searchsorted(da, "right")
            ))
        COUNTERS.record_scan("adaptive/merge", la + lb)
        return intersect_count_merge(da, db)

    # sorted's bulk fast paths serve SortedSet alone: take the
    # per-operation defaults directly, without their type check and hop.
    intersect_count_many = SetBase.intersect_count_many
    intersect_count_argmax = SetBase.intersect_count_argmax

    def intersect_inplace(self, other: SetBase) -> None:
        b = self._coerce(other)
        data, bits = self._intersect_payload(b)
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(data))
        self._adopt(data, bits)

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: one dispatched kernel, no intermediate copy.
        ca, cb = self._coerce(a), self._coerce(b)
        data, bits = ca._intersect_payload(cb)
        COUNTERS.record_bulk(len(ca._data) + len(cb._data), len(data))
        self._adopt(data, bits)

    def union(self, other: SetBase) -> "AdaptiveSet":
        b = self._coerce(other)
        da, db = self._data, b._data
        wa, wb = self._bits, b._bits
        if wa is not None and wb is not None:
            bits = wa | wb
            COUNTERS.record_scan("adaptive/bitmap",
                                 3 * max(_words(wa), _words(wb)))
            out = _result(BitSet(bits).to_array(), bits)
        else:
            COUNTERS.record_scan("adaptive/merge", len(da) + len(db))
            out = AdaptiveSet(union_merge(da, db), _trusted=True)
        COUNTERS.record_bulk(len(da) + len(db), len(out._data))
        return out

    def diff(self, other: SetBase) -> "AdaptiveSet":
        b = self._coerce(other)
        da, db = self._data, b._data
        wa, wb = self._bits, b._bits
        if len(da) == 0 or len(db) == 0:
            data, bits = da, wa
        elif wa is not None and wb is not None:
            bits = wa & ~wb
            COUNTERS.record_scan("adaptive/bitmap", 3 * _words(wa))
            data = BitSet(bits).to_array()
        else:
            COUNTERS.record_scan("adaptive/merge", len(da) + len(db))
            data, bits = diff_merge(da, db), None
        COUNTERS.record_bulk(len(da) + len(db), len(data))
        return _result(data, bits)

    # -- point updates: sorted's splice, then the bitmap's upkeep ----------
    def add(self, element: int) -> None:
        data = self._data
        super().add(element)
        if self._data is not data:
            bits = self._bits
            if bits is not None and element < _words(bits) << 6:
                self._adopt(self._data, bits | (1 << element))
            else:
                self._repack()  # the new member can cross the threshold

    def remove(self, element: int) -> None:
        data = self._data
        super().remove(element)
        if self._data is not data:
            bits = self._bits
            self._adopt(self._data,
                        None if bits is None else bits ^ (1 << element))

    # -- fast-path overrides ---------------------------------------------
    def clone(self) -> "AdaptiveSet":
        out = AdaptiveSet.__new__(AdaptiveSet)
        out._replace_with(self)
        return out

    def _replace_with(self, other: SetBase) -> None:
        o = self._coerce(other)
        self._data, self._bits = o._data, o._bits
        self._hash, self._list = o._hash, o._list

    # -- storage accounting ------------------------------------------------
    def storage_bytes(self) -> int:
        """Array footprint plus the bitmap's words, if any."""
        bits = self._bits
        return self._data.nbytes + (0 if bits is None else 8 * _words(bits))


def _result(data: np.ndarray, bits: Optional[int]) -> AdaptiveSet:
    out = AdaptiveSet.__new__(AdaptiveSet)
    out._adopt(data, bits)
    return out
