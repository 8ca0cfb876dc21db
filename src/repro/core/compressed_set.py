"""CompressedSortedSet — gap+varint compressed set representation.

The paper lists *compressed variants* of integer arrays among the set
layouts GMS offers (§5.2: "different set layouts based on integer arrays,
bit vectors, and compressed variants of these two").  This class stores
the sorted elements as a gap-encoded varint byte string — the Log(Graph)
adjacency encoding applied to a single set — and decompresses lazily,
caching the decoded array between mutations.

Storage is typically 4–8× below SortedSet for clustered IDs; every bulk
operation pays one decode of each operand, making the representation a
pure storage/performance trade-off point for the ablation studies.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from ..compress.gap import gap_decode, gap_encode
from ..compress.varint import decode_array, encode_array
from .counters import COUNTERS
from .interface import SetBase
from .ops import as_sorted_unique

__all__ = ["CompressedSortedSet"]


class CompressedSortedSet(SetBase):
    """A set stored as gap-encoded varint bytes with a lazy decode cache."""

    __slots__ = ("_blob", "_count", "_cache")

    def __init__(self, blob: bytes = b"", count: int = 0):
        self._blob = blob
        self._count = count
        self._cache: Optional[np.ndarray] = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "CompressedSortedSet":
        arr = np.unique(np.fromiter(elements, dtype=np.int64))
        return cls.from_sorted_array(arr)

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "CompressedSortedSet":
        # Validate-or-sort: gap encoding silently assumes sortedness, so an
        # unsorted or duplicated input must be normalized first.
        arr = as_sorted_unique(array)
        out = cls(encode_array(gap_encode(arr)), len(arr))
        out._cache = arr.copy()
        return out

    # -- decode ----------------------------------------------------------
    def _decoded(self) -> np.ndarray:
        if self._cache is None:
            if self._count == 0:
                self._cache = np.empty(0, dtype=np.int64)
            else:
                self._cache = gap_decode(decode_array(self._blob, self._count))
        return self._cache

    def _recompress(self, arr: np.ndarray) -> None:
        self._blob = encode_array(gap_encode(arr))
        self._count = len(arr)
        self._cache = arr

    # -- core algebra ---------------------------------------------------
    def intersect(self, other: SetBase) -> "CompressedSortedSet":
        b = self._coerce(other)
        COUNTERS.record_bulk(self._count + b._count, 0)
        out = np.intersect1d(self._decoded(), b._decoded(), assume_unique=True)
        COUNTERS.elements_written += len(out)
        return CompressedSortedSet.from_sorted_array(out)

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        COUNTERS.record_bulk(self._count + b._count, 0)
        return len(
            np.intersect1d(self._decoded(), b._decoded(), assume_unique=True)
        )

    def union(self, other: SetBase) -> "CompressedSortedSet":
        b = self._coerce(other)
        out = np.union1d(self._decoded(), b._decoded())
        COUNTERS.record_bulk(self._count + b._count, len(out))
        return CompressedSortedSet.from_sorted_array(out)

    def diff(self, other: SetBase) -> "CompressedSortedSet":
        b = self._coerce(other)
        out = np.setdiff1d(self._decoded(), b._decoded(), assume_unique=True)
        COUNTERS.record_bulk(self._count + b._count, len(out))
        return CompressedSortedSet.from_sorted_array(out)

    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        arr = self._decoded()
        idx = int(np.searchsorted(arr, element))
        return idx < len(arr) and arr[idx] == element

    def add(self, element: int) -> None:
        COUNTERS.record_point()
        arr = self._decoded()
        idx = int(np.searchsorted(arr, element))
        if idx < len(arr) and arr[idx] == element:
            return
        self._recompress(np.insert(arr, idx, element))
        COUNTERS.elements_written += 1

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        arr = self._decoded()
        idx = int(np.searchsorted(arr, element))
        if idx < len(arr) and arr[idx] == element:
            self._recompress(np.delete(arr, idx))
            COUNTERS.elements_written += 1

    def cardinality(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        return iter(self._decoded().tolist())

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        return self._decoded().copy()

    def members(self) -> list:
        return self._decoded().tolist()

    def clone(self) -> "CompressedSortedSet":
        out = CompressedSortedSet(self._blob, self._count)
        if self._cache is not None:
            out._cache = self._cache.copy()
        return out

    def _replace_with(self, other: SetBase) -> None:
        o = self._coerce(other)
        self._blob, self._count = o._blob, o._count
        self._cache = None if o._cache is None else o._cache.copy()

    # -- storage accounting ------------------------------------------------
    def storage_bytes(self) -> int:
        """Compressed payload size (excludes the transient decode cache)."""
        return len(self._blob) + 8

    def drop_cache(self) -> None:
        """Release the decode cache (storage-only resident state)."""
        self._cache = None
