"""KMVSketchSet — k-minimum-values (bottom-k MinHash) set representation.

Like :class:`~repro.approx.bloom.BloomFilterSet` this is ProbGraph-style
sketch-augmented: the exact sorted member array travels with a KMV
signature (the ``K`` smallest 64-bit hashes of the members).  Materialized
set algebra (``intersect`` / ``union`` / ``diff``) and membership are exact
— what the sketch buys is *O(K)* cardinality estimation independent of set
size:

* ``intersect_count`` estimates ``|A ∩ B| = ρ̂ · |A ∪ B|^`` from the merged
  bottom-k signature (Beyer et al.; ProbGraph's MinHash estimator) —
  clamped to the always-valid ``[0, min(|A|, |B|)]``.
* ``union_count`` estimates ``|A ∪ B|`` from the merged signature, clamped
  to ``[max(|A|, |B|), |A| + |B|]``.
* ``cardinality_estimate`` is the pure-sketch distinct count with relative
  standard error ``≈ 1/sqrt(K - 2)``.

When a set holds fewer than ``K`` elements its signature is the complete
hash set and every estimate degenerates to the exact answer.  Use
:func:`kmv_set_class` to derive a class with a different ``K``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Type

import numpy as np

from ..core.counters import COUNTERS
from ..core.interface import SetBase
from ..core.ops import as_sorted_unique
from ..core.registry import derived_set_class
from .estimators import (
    kmv_cardinality_estimate,
    kmv_intersection_estimate,
    kmv_jaccard_estimate,
    kmv_merge,
)
from .hashing import kmv_hashes

__all__ = ["KMVSketchSet", "kmv_set_class"]

_EMPTY = np.empty(0, dtype=np.int64)


class KMVSketchSet(SetBase):
    """A set backed by exact sorted members plus a bottom-k hash signature."""

    IS_EXACT = False
    K = 128

    __slots__ = ("_members", "_sig")

    def __init__(self, data: Optional[np.ndarray] = None, *, _trusted: bool = False):
        if data is None:
            members = _EMPTY
        elif _trusted:
            members = np.asarray(data, dtype=np.int64)
        else:
            members = np.unique(np.asarray(data, dtype=np.int64))
        self._members = members
        self._rebuild_signature()

    def _rebuild_signature(self) -> None:
        if len(self._members) == 0:
            self._sig = np.empty(0, dtype=np.uint64)
        else:
            self._sig = np.unique(kmv_hashes(self._members))[: self.K]

    def _paired_signatures(self, other: "KMVSketchSet"):
        """Align two signatures on a common (possibly smaller) ``k``."""
        k = min(self.K, other.K)
        return self._sig[:k], other._sig[:k], k

    def _as_kmv(self, other: SetBase) -> "KMVSketchSet":
        if isinstance(other, KMVSketchSet):
            return other
        return type(self).from_sorted_array(other.to_array())

    @staticmethod
    def _members_of(other: SetBase) -> np.ndarray:
        # Materialized ops only need the other operand's member array;
        # hashing a throwaway signature for it would be wasted work.
        if isinstance(other, KMVSketchSet):
            return other._members
        return other.to_array()

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "KMVSketchSet":
        arr = np.fromiter(elements, dtype=np.int64)
        COUNTERS.record_sketch_build()
        return cls(np.unique(arr), _trusted=True)

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "KMVSketchSet":
        COUNTERS.record_sketch_build()
        return cls(as_sorted_unique(array), _trusted=True)

    # -- core algebra (exact on the member store) --------------------------
    def intersect(self, other: SetBase) -> "KMVSketchSet":
        b = self._members_of(other)
        out = np.intersect1d(self._members, b, assume_unique=True)
        COUNTERS.record_bulk(len(self._members) + len(b), len(out))
        return type(self)(out, _trusted=True)

    def union(self, other: SetBase) -> "KMVSketchSet":
        b = self._members_of(other)
        out = np.union1d(self._members, b)
        COUNTERS.record_bulk(len(self._members) + len(b), len(out))
        return type(self)(out, _trusted=True)

    def diff(self, other: SetBase) -> "KMVSketchSet":
        b = self._members_of(other)
        out = np.setdiff1d(self._members, b, assume_unique=True)
        COUNTERS.record_bulk(len(self._members) + len(b), len(out))
        return type(self)(out, _trusted=True)

    # -- sketch count estimators -------------------------------------------
    def intersect_count(self, other: SetBase) -> int:
        if not isinstance(other, KMVSketchSet):
            # No signature on the other side: the exact merge count beats
            # hashing a throwaway sketch on both cost and accuracy.
            b_members = other.to_array()
            COUNTERS.record_bulk(len(self._members) + len(b_members), 0)
            return len(np.intersect1d(self._members, b_members, assume_unique=True))
        sig_a, sig_b, k = self._paired_signatures(other)
        COUNTERS.record_bulk(len(sig_a) + len(sig_b), 0)
        raw = kmv_intersection_estimate(sig_a, sig_b, k)
        bound = min(len(self._members), len(other._members))
        return int(round(min(max(raw, 0.0), bound)))

    def union_count(self, other: SetBase) -> int:
        if not isinstance(other, KMVSketchSet):
            b_members = other.to_array()
            COUNTERS.record_bulk(len(self._members) + len(b_members), 0)
            return len(np.union1d(self._members, b_members))
        sig_a, sig_b, k = self._paired_signatures(other)
        COUNTERS.record_bulk(len(sig_a) + len(sig_b), 0)
        raw = kmv_cardinality_estimate(kmv_merge(sig_a, sig_b, k), k)
        n_a, n_b = len(self._members), len(other._members)
        return int(round(min(max(raw, max(n_a, n_b)), n_a + n_b)))

    def diff_count(self, other: SetBase) -> int:
        return len(self._members) - self.intersect_count(other)

    def jaccard_estimate(self, other: SetBase) -> float:
        """Sketch-only Jaccard similarity (vertex-similarity workloads)."""
        b = self._as_kmv(other)
        sig_a, sig_b, k = self._paired_signatures(b)
        return kmv_jaccard_estimate(sig_a, sig_b, k)

    def cardinality_estimate(self) -> float:
        """Pure-sketch distinct count (rel. std-err ``≈ 1/sqrt(K-2)``)."""
        return kmv_cardinality_estimate(self._sig, self.K)

    # -- point operations --------------------------------------------------
    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        idx = np.searchsorted(self._members, element)
        return bool(idx < len(self._members) and self._members[idx] == element)

    def add(self, element: int) -> None:
        COUNTERS.record_point()
        idx = int(np.searchsorted(self._members, element))
        if idx < len(self._members) and self._members[idx] == element:
            return
        self._members = np.insert(self._members, idx, element)
        COUNTERS.elements_written += 1
        h = kmv_hashes(np.asarray([element], dtype=np.int64))[0]
        pos = int(np.searchsorted(self._sig, h))
        if pos < len(self._sig) and self._sig[pos] == h:
            return
        if len(self._sig) < self.K:
            self._sig = np.insert(self._sig, pos, h)
        elif pos < self.K:
            self._sig = np.insert(self._sig, pos, h)[: self.K]

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        idx = int(np.searchsorted(self._members, element))
        if idx < len(self._members) and self._members[idx] == element:
            self._members = np.delete(self._members, idx)
            COUNTERS.elements_written += 1
            # The removed element's hash may sit in the signature; a KMV
            # sketch cannot delete lazily, so rebuild from the member store.
            self._rebuild_signature()

    def cardinality(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[int]:
        return iter(self._members.tolist())

    # -- fast-path overrides ------------------------------------------------
    def to_array(self) -> np.ndarray:
        return self._members.copy()

    def members(self) -> list:
        return self._members.tolist()

    def clone(self) -> "KMVSketchSet":
        new = object.__new__(type(self))
        new._members = self._members.copy()
        new._sig = self._sig.copy()
        return new

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: the intersection is fresh, so this set adopts
        # it without the member and signature copies of assign and
        # intersect_inplace.
        ca = self._coerce(a)
        out = ca.intersect(b)
        self._members, self._sig = out._members, out._sig

    def _replace_with(self, other: SetBase) -> None:
        if isinstance(other, KMVSketchSet) and other.K == self.K:
            # Same signature size: the other set's sketch is already valid
            # for this one, so copy it instead of rehashing every member.
            self._members = other._members.copy()
            self._sig = other._sig.copy()
        else:
            self._members = self._members_of(other).copy()
            self._rebuild_signature()

    # -- storage accounting ---------------------------------------------------
    def sketch_bits(self) -> int:
        """Size of the KMV signature in bits."""
        return 64 * len(self._sig)

    # -- budget configuration --------------------------------------------------
    @classmethod
    def with_k(cls, k: int, name: Optional[str] = None) -> Type["KMVSketchSet"]:
        """Derive a subclass of *cls* with signature size *k*.

        Deriving from ``cls`` preserves any method overrides of user
        subclasses.  Equal parameters give the same class object.
        """
        if k < 4:
            raise ValueError("KMV signatures need k >= 4")
        return derived_set_class(
            cls, name or f"{cls.__name__.split('_k')[0]}_k{k}", K=k)


def kmv_set_class(k: int = 128, name: Optional[str] = None) -> Type[KMVSketchSet]:
    """Derive a :class:`KMVSketchSet` subclass with signature size *k*."""
    return KMVSketchSet.with_k(k, name)
