"""Explicit set-algorithm kernels (paper sections 5.2 and 6.5).

A single set *operation* (e.g. ``A ∩ B``) can be realized by different set
*algorithms*.  The paper's vertex-similarity use case exposes two of them —

* **merge**: simultaneous scan of two sorted arrays.  Realized here as a
  vectorized *merge-path*: two binary-search partitions position every
  element of ``A`` and ``B`` in the merged order, then one linear scatter +
  adjacent-compare pass extracts the result — ``O(|A| + |B|)`` memory
  traffic, no concatenate-and-re-sort (``np.intersect1d`` pays an
  ``O((|A| + |B|) log(|A| + |B|))`` global sort that ignores the
  operands' sortedness);
* **galloping**: for each element of the smaller set, binary-search the
  larger one, ``O(|small| log |large|)`` — preferable when ``|A| ≪ |B|``.

The dense organization, a bitmap, is :class:`~repro.core.bit_set.BitSet`'s
big int.  These kernels operate on raw sorted unique numpy arrays so the
ablation benchmark can time the algorithms themselves, independent of any
Set class.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_sorted_unique",
    "intersect_merge",
    "intersect_galloping",
    "intersect_count_merge",
    "intersect_count_galloping",
    "member_mask_galloping",
    "popcount",
]

_EMPTY = np.empty(0, dtype=np.int64)


if hasattr(np, "bitwise_count"):

    def popcount(words: np.ndarray) -> int:
        """The number of set bits in the contiguous unsigned *words*."""
        return int(np.bitwise_count(words).sum())

else:  # numpy < 2.0 has no vectorized popcount

    def popcount(words: np.ndarray) -> int:
        """The number of set bits in the contiguous unsigned *words*."""
        return int(np.unpackbits(words.view(np.uint8)).sum())


def as_sorted_unique(array: np.ndarray) -> np.ndarray:
    """Validate-or-sort an array into the sorted-unique ``int64`` contract.

    Cheap ``O(n)`` validation when the input already satisfies the
    contract (the common CSR fast path); otherwise one ``np.unique``.
    Shared by the ``from_sorted_array`` constructors so an unsorted or
    duplicated input can never silently build a corrupt set.
    """
    arr = np.asarray(array, dtype=np.int64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if len(arr) > 1 and not (arr[1:] > arr[:-1]).all():
        arr = np.unique(arr)
    return arr


def _merge_member_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Membership of each ``a[i]`` in ``b`` via one merge-path pass.

    Both operands are scanned in full (``O(|a| + |b|)`` traffic): the two
    ``searchsorted`` partitions place every element in the merged order,
    the scatter materializes that order, and an element of ``a`` is a
    member of ``b`` exactly when its merged successor equals it (stable
    order puts the ``a`` copy first).
    """
    n, m = len(a), len(b)
    pa = np.arange(n, dtype=np.int64) + np.searchsorted(b, a, side="left")
    pb = np.arange(m, dtype=np.int64) + np.searchsorted(a, b, side="right")
    merged = np.empty(n + m, dtype=np.int64)
    merged[pa] = a
    merged[pb] = b
    successor = np.minimum(pa + 1, n + m - 1)
    return (pa + 1 < n + m) & (merged[successor] == a)


def member_mask_galloping(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean mask via binary-search probes of ``a``'s elements into ``b``.

    ``a[i] ∈ b`` exactly when the left and right insertion points differ
    (``b`` is unique, so the gap is 0 or 1) — two vectorized searches and
    one compare, with no bounds fix-up pass.
    """
    if len(a) == 0 or len(b) == 0:
        return np.zeros(len(a), dtype=bool)
    b = np.asarray(b)
    return b.searchsorted(a, "left") != b.searchsorted(a, "right")


def intersect_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge-intersect two sorted unique arrays in ``O(|a| + |b|)``."""
    if len(a) == 0 or len(b) == 0:
        return _EMPTY
    return np.asarray(a, dtype=np.int64)[_merge_member_mask(a, b)]


def intersect_galloping(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Galloping intersection: binary-search each element of the smaller set.

    Runs in ``O(|small| log |large|)``; the winner when one operand is much
    smaller than the other (section 6.5).
    """
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return np.empty(0, dtype=small.dtype)
    return small[member_mask_galloping(small, large)]


def intersect_count_merge(a: np.ndarray, b: np.ndarray) -> int:
    """``|a ∩ b|`` via merging."""
    if len(a) == 0 or len(b) == 0:
        return 0
    return int(np.count_nonzero(_merge_member_mask(a, b)))


def intersect_count_galloping(a: np.ndarray, b: np.ndarray) -> int:
    """``|a ∩ b|`` via galloping."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(small) == 0:
        return 0
    return int(np.count_nonzero(member_mask_galloping(small, large)))
