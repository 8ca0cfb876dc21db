"""BloomFilterSet — Bloom-filter-augmented set representation (ProbGraph BF).

Following ProbGraph, the representation is *sketch-augmented*: alongside a
Bloom filter (a power-of-two-sized bit array, stored as ``uint64`` words)
it keeps the exact sorted member array, so iteration, ``cardinality`` and
``to_array`` stay exact and every GMS kernel runs unmodified.  What is
approximate — and fast — are the probe-and-count paths that dominate
intersection-heavy mining kernels:

* ``contains`` probes the filter: **no false negatives**, false positives
  at the classic ``(1 - e^{-kn/m})^k`` rate.
* ``intersect`` / ``diff`` keep the members of ``self`` that pass / fail a
  vectorized probe of ``other``'s filter — the result is a superset of the
  true intersection (resp. subset of the true difference).
* ``intersect_count`` is the ProbGraph estimator: popcounts of the two
  filters and of their bitwise OR, corrected through the Swamidass–Baldi
  inversion and combined by inclusion–exclusion
  (see :mod:`repro.approx.estimators` for the math and error bounds).
  Estimates are clamped to the always-valid range ``[0, min(|A|, |B|)]``.

Filters are sized per set at ``BITS_PER_ELEMENT`` bits per element (the
ProbGraph storage budget *b*), rounded up to a power of two with a
``MIN_BITS`` floor.  Equal-sized filters use the pure popcount estimator;
when budgets differ (a hub neighborhood against a low-degree one) the
smaller member array probes the larger filter instead, which keeps the
error bounded by the larger filter's false-positive rate rather than
saturating a downsized filter.  Use :func:`bloom_set_class` to derive a
class with a different budget.

Alternatively, a *shared* budget fixes one filter size for every instance:
:func:`shared_bloom_set_class` (or :meth:`BloomFilterSet.with_shared_budget`)
splits a per-graph total of ``m_total`` bits evenly over ``n`` sets,
``m = m_total / n`` rounded down to a power of two.  With every filter the
same size, *every* pair of neighborhoods takes the pure popcount estimator
— the probe fallback for disparate budgets never triggers — which is the
ProbGraph deployment model (one storage budget chosen per graph, not per
vertex).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Type

import numpy as np

from ..core.counters import COUNTERS
from ..core.interface import SetBase
from ..core.ops import popcount
from ..core.registry import derived_set_class
from .estimators import (
    bloom_cardinality_estimate,
    bloom_false_positive_rate,
    bloom_intersection_estimate,
)
from .hashing import bloom_indices

__all__ = ["BloomFilterSet", "bloom_set_class", "shared_bloom_set_class"]

_EMPTY = np.empty(0, dtype=np.int64)


def _pow2_ceil(x: int) -> int:
    return 1 << max(x - 1, 0).bit_length()


class BloomFilterSet(SetBase):
    """A set backed by exact sorted members plus a Bloom filter sketch."""

    IS_EXACT = False
    BITS_PER_ELEMENT = 32
    NUM_HASHES = 4
    MIN_BITS = 1024
    #: Fixed filter size in bits for shared-budget classes; 0 = size per set.
    SHARED_BITS = 0

    __slots__ = ("_members", "_words", "_num_bits", "_ones")

    def __init__(self, data: Optional[np.ndarray] = None, *, _trusted: bool = False):
        if data is None:
            members = _EMPTY
        elif _trusted:
            members = np.asarray(data, dtype=np.int64)
        else:
            members = np.unique(np.asarray(data, dtype=np.int64))
        self._members = members
        self._rebuild_filter()

    # -- sketch maintenance ---------------------------------------------
    @classmethod
    def _sized_bits(cls, n: int) -> int:
        if cls.SHARED_BITS:
            return cls.SHARED_BITS
        return _pow2_ceil(max(cls.MIN_BITS, 64, cls.BITS_PER_ELEMENT * max(n, 1)))

    def _rebuild_filter(self) -> None:
        self._num_bits = type(self)._sized_bits(len(self._members))
        self._words = np.zeros(self._num_bits // 64, dtype=np.uint64)
        self._ones = None
        if len(self._members):
            self._set_bits(self._members)

    def _set_bits(self, elements: np.ndarray) -> None:
        idx = bloom_indices(elements, self.NUM_HASHES, self._num_bits)
        np.bitwise_or.at(
            self._words,
            idx >> 6,
            np.left_shift(np.uint64(1), (idx & 63).astype(np.uint64)),
        )
        self._ones = None

    def _own_popcount(self) -> int:
        """Popcount of this filter, cached — intersect_count is called once
        per edge in the mining kernels but each filter's own bit count only
        changes on mutation."""
        if self._ones is None:
            self._ones = popcount(self._words)
        return self._ones

    def _probe(self, elements: np.ndarray) -> np.ndarray:
        """Vectorized membership probe: bool mask, no false negatives."""
        if len(elements) == 0:
            return np.zeros(0, dtype=bool)
        idx = bloom_indices(elements, self.NUM_HASHES, self._num_bits)
        gathered = self._words[idx >> 6]
        bits = (gathered >> (idx & 63).astype(np.uint64)) & np.uint64(1)
        return bits.astype(bool).all(axis=0)

    def _as_bloom(self, other: SetBase) -> "BloomFilterSet":
        if isinstance(other, BloomFilterSet) and other.NUM_HASHES == self.NUM_HASHES:
            return other
        return type(self).from_sorted_array(other.to_array())

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "BloomFilterSet":
        arr = np.fromiter(elements, dtype=np.int64)
        COUNTERS.record_sketch_build()
        return cls(np.unique(arr), _trusted=True)

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "BloomFilterSet":
        COUNTERS.record_sketch_build()
        return cls(np.asarray(array, dtype=np.int64), _trusted=True)

    # -- core algebra ---------------------------------------------------
    def intersect(self, other: SetBase) -> "BloomFilterSet":
        if isinstance(other, BloomFilterSet):
            mask = other._probe(self._members)
            out = self._members[mask]
            COUNTERS.record_bulk(len(self._members) + other._words.size, len(out))
        else:
            # Building a throwaway filter for a non-Bloom operand would be
            # strictly more work than an exact merge of the member arrays.
            b_members = other.to_array()
            out = np.intersect1d(self._members, b_members, assume_unique=True)
            COUNTERS.record_bulk(len(self._members) + len(b_members), len(out))
        return type(self)(out, _trusted=True)

    def union(self, other: SetBase) -> "BloomFilterSet":
        # Union only needs the other operand's member array — building a
        # throwaway filter for it (via _as_bloom) would be wasted hashing.
        b_members = (
            other._members
            if isinstance(other, BloomFilterSet)
            else other.to_array()
        )
        out = np.union1d(self._members, b_members)
        COUNTERS.record_bulk(len(self._members) + len(b_members), len(out))
        return type(self)(out, _trusted=True)

    def diff(self, other: SetBase) -> "BloomFilterSet":
        if isinstance(other, BloomFilterSet):
            mask = ~other._probe(self._members)
            out = self._members[mask]
            COUNTERS.record_bulk(len(self._members) + other._words.size, len(out))
        else:
            b_members = other.to_array()
            out = np.setdiff1d(self._members, b_members, assume_unique=True)
            COUNTERS.record_bulk(len(self._members) + len(b_members), len(out))
        return type(self)(out, _trusted=True)

    # -- sketch count estimators (the ProbGraph fast path) ---------------
    def intersect_count(self, other: SetBase) -> int:
        if not isinstance(other, BloomFilterSet):
            # No filter on the other side: an exact merge count is both
            # cheaper and exact — hashing a throwaway filter would lose on
            # all axes.
            b_members = other.to_array()
            COUNTERS.record_bulk(len(self._members) + len(b_members), 0)
            return len(np.intersect1d(self._members, b_members, assume_unique=True))
        b = other
        if b.NUM_HASHES == self.NUM_HASHES and b._num_bits == self._num_bits:
            wa, wb = self._words, b._words
            COUNTERS.record_bulk(wa.size + wb.size, 0)
            raw = bloom_intersection_estimate(
                self._own_popcount(), b._own_popcount(), popcount(wa | wb),
                self._num_bits, self.NUM_HASHES,
            )
        else:
            # Disparate budgets (e.g. a hub against a low-degree vertex):
            # OR-folding the larger filter down would saturate it, so one
            # side's members probe the other's filter instead.  The
            # expected overestimate is FPR(target) × n(probed); pick the
            # direction that minimizes it, which handles both the
            # hub-vs-leaf case (probe the few leaf members into the hub's
            # filter) and the lean-vs-rich budget case (probe the lean
            # set's many members into the rich, clean filter).
            fpr_self = bloom_false_positive_rate(
                len(self._members), self._num_bits, self.NUM_HASHES
            )
            fpr_b = bloom_false_positive_rate(
                len(b._members), b._num_bits, b.NUM_HASHES
            )
            if fpr_self * len(b._members) <= fpr_b * len(self._members):
                probed, target = b, self
            else:
                probed, target = self, b
            COUNTERS.record_bulk(len(probed._members) + target._words.size, 0)
            raw = float(target._probe(probed._members).sum())
        bound = min(len(self._members), len(b._members))
        return int(round(min(max(raw, 0.0), bound)))

    def union_count(self, other: SetBase) -> int:
        if not isinstance(other, BloomFilterSet):
            b_members = other.to_array()
            COUNTERS.record_bulk(len(self._members) + len(b_members), 0)
            return len(np.union1d(self._members, b_members))
        b = other
        n_a, n_b = len(self._members), len(b._members)
        if b.NUM_HASHES == self.NUM_HASHES and b._num_bits == self._num_bits:
            COUNTERS.record_bulk(self._words.size + b._words.size, 0)
            raw = bloom_cardinality_estimate(
                popcount(self._words | b._words), self._num_bits, self.NUM_HASHES
            )
        else:
            raw = float(n_a + n_b - self.intersect_count(b))
        return int(round(min(max(raw, max(n_a, n_b)), n_a + n_b)))

    def diff_count(self, other: SetBase) -> int:
        return len(self._members) - self.intersect_count(other)

    # -- point operations -------------------------------------------------
    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        return bool(self._probe(np.asarray([element], dtype=np.int64))[0])

    def add(self, element: int) -> None:
        COUNTERS.record_point()
        idx = int(np.searchsorted(self._members, element))
        if idx < len(self._members) and self._members[idx] == element:
            return
        self._members = np.insert(self._members, idx, element)
        COUNTERS.elements_written += 1
        if (not self.SHARED_BITS
                and len(self._members) * self.BITS_PER_ELEMENT > self._num_bits):
            self._rebuild_filter()  # grow: keeps the false-positive rate bounded
        else:
            self._set_bits(np.asarray([element], dtype=np.int64))

    def remove(self, element: int) -> None:
        # Bloom filters do not support bit deletion; the member array is
        # updated exactly but the filter keeps the stale bits (a removed
        # element may still probe as present — one-sided error only grows).
        COUNTERS.record_point()
        idx = int(np.searchsorted(self._members, element))
        if idx < len(self._members) and self._members[idx] == element:
            self._members = np.delete(self._members, idx)
            COUNTERS.elements_written += 1

    def cardinality(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[int]:
        return iter(self._members.tolist())

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        return self._members.copy()

    def members(self) -> list:
        return self._members.tolist()

    def clone(self) -> "BloomFilterSet":
        new = object.__new__(type(self))
        new._members = self._members.copy()
        new._words = self._words.copy()
        new._num_bits = self._num_bits
        new._ones = self._ones
        return new

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: the intersection is fresh, so this set adopts
        # it without the member and filter copies of assign and
        # intersect_inplace.
        ca = self._coerce(a)
        out = ca.intersect(b)
        self._members, self._words = out._members, out._words
        self._num_bits, self._ones = out._num_bits, out._ones

    def _replace_with(self, other: SetBase) -> None:
        b = self._as_bloom(other)
        self._members = b._members.copy()
        self._words = b._words.copy()
        self._num_bits = b._num_bits
        self._ones = b._ones

    # -- storage accounting (memory-consumption analysis) -----------------
    def sketch_bits(self) -> int:
        """Size of the Bloom filter in bits (the ProbGraph budget ``m``)."""
        return self._num_bits

    # -- budget configuration ---------------------------------------------
    @classmethod
    def with_budget(
        cls,
        bits_per_element: Optional[int] = None,
        num_hashes: Optional[int] = None,
        min_bits: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Type["BloomFilterSet"]:
        """Derive a subclass of *cls* with a different storage budget.

        Deriving from ``cls`` (not the base class) preserves any method
        overrides of user subclasses; omitted parameters keep ``cls``'s
        values.  Equal parameters give the same class object.
        """
        bpe = cls.BITS_PER_ELEMENT if bits_per_element is None else bits_per_element
        hashes = cls.NUM_HASHES if num_hashes is None else num_hashes
        floor = cls.MIN_BITS if min_bits is None else min_bits
        if bpe < 1 or hashes < 1 or floor < 64:
            raise ValueError("bloom budget parameters out of range")
        return derived_set_class(
            cls, name or f"{cls.__name__.split('_b')[0]}_b{bpe}_k{hashes}",
            BITS_PER_ELEMENT=bpe, NUM_HASHES=hashes, MIN_BITS=floor,
        )

    @classmethod
    def with_shared_budget(
        cls,
        total_bits: int,
        num_sets: int,
        num_hashes: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Type["BloomFilterSet"]:
        """Derive a subclass whose every instance uses one fixed filter size.

        The per-graph total of *total_bits* is split evenly over *num_sets*
        sets: ``m = total_bits / num_sets``, rounded *down* to a power of
        two so the rounding itself never exceeds the global budget — but
        each filter is floored at 64 bits (one word), so totals leaner
        than ``64 * num_sets`` are promoted to that floor (with an explicit
        ``UserWarning``, since the promotion overruns the requested global
        budget) and every such total yields the same class.  With all
        filters equal-sized, every ``intersect_count`` pair takes the pure
        popcount estimator — the disparate-budget probe fallback never
        triggers.  Every total that yields the same filter size (and hash
        count) gives the same class object.
        """
        if total_bits < 64 or num_sets < 1:
            raise ValueError("shared bloom budget parameters out of range")
        if total_bits // num_sets < 64:
            import warnings

            warnings.warn(
                f"shared Bloom budget of {total_bits} bits over {num_sets} "
                f"sets is below the 64-bit/filter floor; promoting every "
                f"filter to 64 bits (actual total {64 * num_sets} bits)",
                UserWarning,
                stacklevel=2,
            )
        per_set = max(64, total_bits // num_sets)
        m = 1 << (per_set.bit_length() - 1)
        hashes = cls.NUM_HASHES if num_hashes is None else num_hashes
        if hashes < 1:
            raise ValueError("bloom budget parameters out of range")
        return derived_set_class(
            cls, name or f"{cls.__name__.split('_m')[0].split('_b')[0]}_m{m}",
            SHARED_BITS=m, NUM_HASHES=hashes,
        )


def bloom_set_class(
    bits_per_element: int = 32,
    num_hashes: int = 4,
    min_bits: int = 1024,
    name: Optional[str] = None,
) -> Type[BloomFilterSet]:
    """Derive a :class:`BloomFilterSet` subclass with a custom storage budget.

    ``bits_per_element`` is ProbGraph's per-element budget *b*; smaller
    budgets trade accuracy for space and speed.  The returned class can be
    passed anywhere a set class is accepted, including
    :func:`repro.core.registry.register_set_class`.
    """
    return BloomFilterSet.with_budget(bits_per_element, num_hashes, min_bits, name)


def shared_bloom_set_class(
    total_bits: int,
    num_sets: int,
    num_hashes: int = 4,
    name: Optional[str] = None,
) -> Type[BloomFilterSet]:
    """Derive a :class:`BloomFilterSet` subclass with a per-graph shared budget.

    Splits *total_bits* evenly over *num_sets* neighborhoods (``m =
    total_bits / num_sets``, power-of-two floored), so every instance's
    filter has the same size and every pair is eligible for the popcount
    estimator.  This is the ProbGraph deployment model: one storage budget
    chosen per graph in a single factory call.
    """
    return BloomFilterSet.with_shared_budget(total_bits, num_sets, num_hashes, name)
