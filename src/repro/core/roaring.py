"""RoaringSet — compressed roaring-bitmap set representation.

The paper's fastest Bron–Kerbosch variants represent the ``P``/``X``/``R``
sets and the graph neighborhoods with *roaring bitmaps* (section 5.2,
section 6.2): a compressed bitmap that partitions the universe into 2^16-wide
chunks and stores each chunk with whichever of three container types is
smallest —

* **array container**: a sorted array of 16-bit low halves (≤ 4096 elements),
* **bitmap container**: a dense 65536-bit bitvector (> 4096 elements),
* **run container**: a list of ``(start, length)`` runs (produced by
  :meth:`RoaringSet.run_optimize`, mirroring CRoaring's ``runOptimize``).

This is a from-scratch pure-Python reproduction of that structure with the
standard 4096-element array/bitmap threshold.  Bulk operations dispatch on
the container-type pair, so dense×dense chunks use word-parallel big-int
bitwise ops while sparse×sparse chunks use sorted-array merges — the same
adaptivity that makes roaring fast in the C++ platform.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from .counters import COUNTERS
from .interface import SetBase
from .ops import as_sorted_unique

__all__ = ["RoaringSet", "ARRAY_CONTAINER_MAX"]

#: Maximum cardinality of an array container (the standard roaring cutoff).
ARRAY_CONTAINER_MAX = 4096

_CHUNK_BITS = 16
_CHUNK_SIZE = 1 << _CHUNK_BITS
_LOW_MASK = _CHUNK_SIZE - 1
_FULL_BITMAP = (1 << _CHUNK_SIZE) - 1

# A container is a tagged payload:
#   ("a", np.ndarray[uint16])           sorted array container
#   ("b", int)                          65536-bit bitmap container
#   ("r", list[(start, length)])        run container
Container = Tuple[str, object]


def _array_container(values: np.ndarray) -> Container:
    return ("a", values)


def _container_from_array(values: np.ndarray) -> Container:
    """Build array or bitmap container from sorted uint16 values."""
    if len(values) <= ARRAY_CONTAINER_MAX:
        return ("a", values)
    return ("b", _bits_from_array(values))


def _bits_from_array(values: np.ndarray) -> int:
    buf = np.zeros(_CHUNK_SIZE // 8, dtype=np.uint8)
    v = values.astype(np.int64)
    np.bitwise_or.at(buf, v >> 3, np.left_shift(1, v & 7).astype(np.uint8))
    return int.from_bytes(buf.tobytes(), "little")


def _array_from_bits(bits: int) -> np.ndarray:
    buf = np.frombuffer(bits.to_bytes(_CHUNK_SIZE // 8, "little"), dtype=np.uint8)
    return np.nonzero(np.unpackbits(buf, bitorder="little"))[0].astype(np.uint16)


def _container_from_bits(bits: int) -> Container:
    card = bits.bit_count()
    if card <= ARRAY_CONTAINER_MAX:
        return ("a", _array_from_bits(bits))
    return ("b", bits)


def _densify(container: Container) -> Container:
    """Expand a run container into an array or bitmap container."""
    tag, payload = container
    if tag != "r":
        return container
    runs: List[Tuple[int, int]] = payload  # type: ignore[assignment]
    card = sum(length for _, length in runs)
    if card > ARRAY_CONTAINER_MAX:
        bits = 0
        for start, length in runs:
            bits |= ((1 << length) - 1) << start
        return ("b", bits)
    parts = [np.arange(s, s + l, dtype=np.uint16) for s, l in runs]
    values = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint16)
    return ("a", values)


def _card(container: Container) -> int:
    tag, payload = container
    if tag == "a":
        return len(payload)  # type: ignore[arg-type]
    if tag == "b":
        return payload.bit_count()  # type: ignore[union-attr]
    return sum(length for _, length in payload)  # type: ignore[union-attr]


def _contains(container: Container, low: int) -> bool:
    tag, payload = container
    if tag == "a":
        arr: np.ndarray = payload  # type: ignore[assignment]
        idx = np.searchsorted(arr, low)
        return bool(idx < len(arr) and arr[idx] == low)
    if tag == "b":
        return bool((payload >> low) & 1)  # type: ignore[operator]
    return any(start <= low < start + length for start, length in payload)  # type: ignore[union-attr]


def _iter_container(container: Container) -> Iterator[int]:
    tag, payload = container
    if tag == "a":
        yield from payload.tolist()  # type: ignore[union-attr]
    elif tag == "b":
        bits: int = payload  # type: ignore[assignment]
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low
    else:
        for start, length in payload:  # type: ignore[union-attr]
            yield from range(start, start + length)


def _binary_op(a: Container, b: Container, op: str) -> Container | None:
    """Apply intersect/union/diff to two containers; None means empty."""
    a = _densify(a)
    b = _densify(b)
    ta, pa = a
    tb, pb = b
    if ta == "b" and tb == "b":
        if op == "and":
            bits = pa & pb  # type: ignore[operator]
        elif op == "or":
            bits = pa | pb  # type: ignore[operator]
        else:
            bits = pa & ~pb & _FULL_BITMAP  # type: ignore[operator]
        return _container_from_bits(bits) if bits else None
    if ta == "a" and tb == "a":
        if op == "and":
            out = np.intersect1d(pa, pb, assume_unique=True)
        elif op == "or":
            out = np.union1d(pa, pb)
        else:
            out = np.setdiff1d(pa, pb, assume_unique=True)
        return _container_from_array(out.astype(np.uint16)) if len(out) else None
    # Mixed array/bitmap: probe the bitmap with the array.
    if ta == "a":  # pa array, pb bitmap
        arr: np.ndarray = pa  # type: ignore[assignment]
        mask = _membership_mask(pb, arr)  # type: ignore[arg-type]
        if op == "and":
            out = arr[mask]
            return _array_container(out) if len(out) else None
        if op == "diff":
            out = arr[~mask]
            return _array_container(out) if len(out) else None
        bits = pb | _bits_from_array(arr)  # type: ignore[operator]
        return _container_from_bits(bits)
    # pa bitmap, pb array
    arr = pb  # type: ignore[assignment]
    if op == "and":
        mask = _membership_mask(pa, arr)  # type: ignore[arg-type]
        out = arr[mask]
        return _array_container(out) if len(out) else None
    if op == "or":
        bits = pa | _bits_from_array(arr)  # type: ignore[operator]
        return _container_from_bits(bits)
    bits = pa & ~_bits_from_array(arr) & _FULL_BITMAP  # type: ignore[operator]
    return _container_from_bits(bits) if bits else None


def _membership_mask(bits: int, values: np.ndarray) -> np.ndarray:
    buf = np.frombuffer(bits.to_bytes(_CHUNK_SIZE // 8, "little"), dtype=np.uint8)
    table = np.unpackbits(buf, bitorder="little").view(bool)
    return table[values]


class RoaringSet(SetBase):
    """A set stored as a roaring bitmap (chunked adaptive containers)."""

    __slots__ = ("_chunks",)

    def __init__(self, chunks: Dict[int, Container] | None = None):
        self._chunks: Dict[int, Container] = chunks if chunks is not None else {}

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "RoaringSet":
        arr = np.fromiter(elements, dtype=np.int64)
        return cls.from_sorted_array(np.unique(arr))

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "RoaringSet":
        # Validate-or-sort first: the chunk split below reads boundaries
        # off ``np.diff(highs)``, so an unsorted input revisits high chunks
        # and each revisit silently overwrites the previous container.
        arr = as_sorted_unique(array)
        chunks: Dict[int, Container] = {}
        if len(arr) == 0:
            return cls(chunks)
        highs = arr >> _CHUNK_BITS
        lows = (arr & _LOW_MASK).astype(np.uint16)
        boundaries = np.nonzero(np.diff(highs))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(arr)]))
        for s, e in zip(starts.tolist(), ends.tolist()):
            chunks[int(highs[s])] = _container_from_array(lows[s:e])
        return cls(chunks)

    # -- core algebra ---------------------------------------------------
    def intersect(self, other: SetBase) -> "RoaringSet":
        b = self._coerce(other)
        COUNTERS.record_bulk(self.cardinality() + b.cardinality(), 0)
        out: Dict[int, Container] = {}
        small, large = (self, b) if len(self._chunks) <= len(b._chunks) else (b, self)
        for key, ca in small._chunks.items():
            cb = large._chunks.get(key)
            if cb is None:
                continue
            merged = _binary_op(ca, cb, "and")
            if merged is not None:
                out[key] = merged
        result = RoaringSet(out)
        COUNTERS.elements_written += result.cardinality()
        return result

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        COUNTERS.record_bulk(self.cardinality() + b.cardinality(), 0)
        total = 0
        small, large = (self, b) if len(self._chunks) <= len(b._chunks) else (b, self)
        for key, ca in small._chunks.items():
            cb = large._chunks.get(key)
            if cb is None:
                continue
            merged = _binary_op(ca, cb, "and")
            if merged is not None:
                total += _card(merged)
        return total

    def union(self, other: SetBase) -> "RoaringSet":
        b = self._coerce(other)
        COUNTERS.record_bulk(self.cardinality() + b.cardinality(), 0)
        out: Dict[int, Container] = {}
        for key in self._chunks.keys() | b._chunks.keys():
            ca = self._chunks.get(key)
            cb = b._chunks.get(key)
            if ca is None:
                out[key] = _copy_container(cb)  # type: ignore[arg-type]
            elif cb is None:
                out[key] = _copy_container(ca)
            else:
                merged = _binary_op(ca, cb, "or")
                if merged is not None:
                    out[key] = merged
        result = RoaringSet(out)
        COUNTERS.elements_written += result.cardinality()
        return result

    def diff(self, other: SetBase) -> "RoaringSet":
        b = self._coerce(other)
        COUNTERS.record_bulk(self.cardinality() + b.cardinality(), 0)
        out: Dict[int, Container] = {}
        for key, ca in self._chunks.items():
            cb = b._chunks.get(key)
            if cb is None:
                out[key] = _copy_container(ca)
                continue
            merged = _binary_op(ca, cb, "diff")
            if merged is not None:
                out[key] = merged
        result = RoaringSet(out)
        COUNTERS.elements_written += result.cardinality()
        return result

    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        container = self._chunks.get(element >> _CHUNK_BITS)
        if container is None:
            return False
        return _contains(container, element & _LOW_MASK)

    def add(self, element: int) -> None:
        COUNTERS.record_point()
        key = element >> _CHUNK_BITS
        low = element & _LOW_MASK
        container = self._chunks.get(key)
        if container is None:
            self._chunks[key] = ("a", np.array([low], dtype=np.uint16))
            COUNTERS.elements_written += 1
            return
        container = _densify(container)
        tag, payload = container
        if tag == "b":
            if not (payload >> low) & 1:  # type: ignore[operator]
                COUNTERS.elements_written += 1
            self._chunks[key] = ("b", payload | (1 << low))  # type: ignore[operator]
            return
        arr: np.ndarray = payload  # type: ignore[assignment]
        idx = int(np.searchsorted(arr, low))
        if idx < len(arr) and arr[idx] == low:
            self._chunks[key] = container
            return
        new = np.insert(arr, idx, low)
        self._chunks[key] = _container_from_array(new)
        COUNTERS.elements_written += 1

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        key = element >> _CHUNK_BITS
        low = element & _LOW_MASK
        container = self._chunks.get(key)
        if container is None:
            return
        container = _densify(container)
        tag, payload = container
        if tag == "b":
            if (payload >> low) & 1:  # type: ignore[operator]
                COUNTERS.elements_written += 1
            bits = payload & ~(1 << low)  # type: ignore[operator]
            if bits:
                self._chunks[key] = _container_from_bits(bits)
            else:
                del self._chunks[key]
            return
        arr: np.ndarray = payload  # type: ignore[assignment]
        idx = int(np.searchsorted(arr, low))
        if idx < len(arr) and arr[idx] == low:
            new = np.delete(arr, idx)
            COUNTERS.elements_written += 1
            if len(new):
                self._chunks[key] = ("a", new)
            else:
                del self._chunks[key]
        else:
            self._chunks[key] = container

    def cardinality(self) -> int:
        return sum(_card(c) for c in self._chunks.values())

    def __iter__(self) -> Iterator[int]:
        for key in sorted(self._chunks):
            base = key << _CHUNK_BITS
            for low in _iter_container(self._chunks[key]):
                yield base + low

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        parts = []
        for key in sorted(self._chunks):
            base = np.int64(key << _CHUNK_BITS)
            tag, payload = _densify(self._chunks[key])
            arr = payload if tag == "a" else _array_from_bits(payload)  # type: ignore[arg-type]
            parts.append(arr.astype(np.int64) + base)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def clone(self) -> "RoaringSet":
        return RoaringSet({k: _copy_container(c) for k, c in self._chunks.items()})

    def assign(self, other: SetBase) -> None:
        # A private chunk map: add/remove rebind its entries in place.
        # Containers are never mutated, so they may stay shared.
        self._chunks = dict(self._coerce(other)._chunks)

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: the intersection is fresh, so this set adopts
        # it without the copy ``assign`` makes.
        ca = self._coerce(a)
        self._chunks = ca.intersect(b)._chunks

    def _replace_with(self, other: SetBase) -> None:
        self._chunks = self._coerce(other)._chunks

    # -- compression-specific API -----------------------------------------
    def run_optimize(self) -> None:
        """Convert containers to run containers where that is smaller.

        Mirrors CRoaring's ``runOptimize``: a chunk with long consecutive
        runs (common after vertex relabeling) shrinks to a run container.
        """
        for key, container in list(self._chunks.items()):
            tag, payload = _densify(container)
            arr = payload if tag == "a" else _array_from_bits(payload)  # type: ignore[arg-type]
            runs = _runs_from_array(arr)
            sizes = {
                "a": 2 * len(arr),
                "b": _CHUNK_SIZE // 8,
                "r": 2 + 4 * len(runs),
            }
            current = 2 * len(arr) if tag == "a" else _CHUNK_SIZE // 8
            if sizes["r"] < min(current, sizes["a"], sizes["b"]):
                self._chunks[key] = ("r", runs)

    def storage_bytes(self) -> int:
        """Approximate serialized size in bytes (for the memory analysis)."""
        total = 0
        for container in self._chunks.values():
            tag, payload = container
            total += 4  # chunk key + header
            if tag == "a":
                total += 2 * len(payload)  # type: ignore[arg-type]
            elif tag == "b":
                total += _CHUNK_SIZE // 8
            else:
                total += 4 * len(payload)  # type: ignore[arg-type]
        return total

    def container_kinds(self) -> Dict[str, int]:
        """Histogram of container types, e.g. ``{"a": 3, "b": 1}``."""
        hist: Dict[str, int] = {}
        for tag, _ in self._chunks.values():
            hist[tag] = hist.get(tag, 0) + 1
        return hist


def _copy_container(container: Container) -> Container:
    tag, payload = container
    if tag == "a":
        return ("a", payload.copy())  # type: ignore[union-attr]
    if tag == "b":
        return ("b", payload)
    return ("r", list(payload))  # type: ignore[arg-type]


def _runs_from_array(arr: np.ndarray) -> List[Tuple[int, int]]:
    if len(arr) == 0:
        return []
    values = arr.astype(np.int64)
    breaks = np.nonzero(np.diff(values) != 1)[0] + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(values)]))
    return [
        (int(values[s]), int(e - s)) for s, e in zip(starts.tolist(), ends.tolist())
    ]
