"""Name → set-class registry (the ``5+`` modularity hook).

Benchmarks and the CLI select set representations by name, exactly like the
C++ platform selects them via template parameters.  User-defined set classes
can be registered with :func:`register_set_class`.

Besides the five exact representations, the registry exposes the
probabilistic backends of :mod:`repro.approx` — ``"bloom"``
(:class:`~repro.approx.bloom.BloomFilterSet`) and ``"kmv"``
(:class:`~repro.approx.kmv.KMVSketchSet`).  Their registration is *lazy*:
:mod:`repro.approx` is imported on the first **read** of the registry —
any :data:`SET_CLASSES` lookup, membership test, or iteration (and hence
:func:`get_set_class`, :func:`registered_set_classes`,
:func:`set_class_names`) — so this module never imports the backends at
body time and the import graph stays acyclic without ordering constraints.
Test suites should derive their representation matrix from
:func:`registered_set_classes` (and branch on ``cls.IS_EXACT``) rather than
hardcoding class lists, so newly registered backends are covered
automatically.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Type

from .bit_set import BitSet
from .compressed_set import CompressedSortedSet
from .hash_set import HashSet
from .interface import SetBase
from .roaring import RoaringSet
from .sorted_set import SortedSet

__all__ = [
    "SET_CLASSES",
    "derived_set_class",
    "get_set_class",
    "register_set_class",
    "registered_set_classes",
    "set_class_names",
]

_lazy_backends_loaded = False


def _ensure_lazy_backends() -> None:
    """Import :mod:`repro.approx` once so ``"bloom"``/``"kmv"`` self-register.

    Idempotent and cycle-safe: the flag is set *before* the import, so a
    re-entrant call during the package's own body (which imports this
    module first) is a no-op.
    """
    global _lazy_backends_loaded
    if _lazy_backends_loaded:
        return
    _lazy_backends_loaded = True
    import repro.approx  # noqa: F401  (self-registers on import)


class _LazySetClassRegistry(Dict[str, Type[SetBase]]):
    """Registry dict that loads the lazy backends on first *read*.

    Importing this module does not import :mod:`repro.approx`; any lookup,
    membership test, or iteration over the registry does — so consumers
    that read :data:`SET_CLASSES` directly (CLI ``choices``, test
    matrices) see ``"bloom"``/``"kmv"`` exactly as they did when the
    backends were registered eagerly.  Writes never trigger the load
    (``register_set_class`` during the backends' own import must not
    recurse).
    """

    def __getitem__(self, key: str) -> Type[SetBase]:
        if not super().__contains__(key):
            _ensure_lazy_backends()
        return super().__getitem__(key)

    def __contains__(self, key: object) -> bool:
        _ensure_lazy_backends()
        return super().__contains__(key)

    def __iter__(self):
        _ensure_lazy_backends()
        return super().__iter__()

    def __len__(self) -> int:
        _ensure_lazy_backends()
        return super().__len__()

    def keys(self):
        _ensure_lazy_backends()
        return super().keys()

    def values(self):
        _ensure_lazy_backends()
        return super().values()

    def items(self):
        _ensure_lazy_backends()
        return super().items()

    def get(self, key, default=None):
        _ensure_lazy_backends()
        return super().get(key, default)


SET_CLASSES: Dict[str, Type[SetBase]] = _LazySetClassRegistry(
    sorted=SortedSet,
    bitset=BitSet,
    roaring=RoaringSet,
    hash=HashSet,
    compressed=CompressedSortedSet,
)


def get_set_class(name: str) -> Type[SetBase]:
    """Look up a set representation by its registry name."""
    try:
        return SET_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(SET_CLASSES))
        raise KeyError(f"unknown set class {name!r}; known: {known}") from None


def registered_set_classes() -> List[Type[SetBase]]:
    """Return the registered classes, deduplicated, in registration order.

    This is the canonical way for test matrices and benchmarks to derive
    the representation sweep (several names may map to one class).
    """
    return list(dict.fromkeys(SET_CLASSES.values()))


def set_class_names() -> List[str]:
    """Sorted registry names, including the lazily-registered backends."""
    return sorted(SET_CLASSES)


@functools.lru_cache(maxsize=None)
def derived_set_class(base: Type[SetBase], name: str,
                      **attrs: object) -> Type[SetBase]:
    """The subclass *name* of *base* with class attributes *attrs*.

    One class object per argument set: the sketch-budget factories derive
    through here, so equal budgets give the same class, and everything
    keyed by set class (the materialization cache, a ``SetGraph``'s
    ``set_cls``) recognizes a repeated budget.  Derived classes are kept
    for the life of the process, one per distinct argument set.
    """
    return type(name, (base,), {"__slots__": (), **attrs})


def register_set_class(name: str, cls: Type[SetBase]) -> None:
    """Register a user-provided set representation under *name*."""
    if not (isinstance(cls, type) and issubclass(cls, SetBase)):
        raise TypeError("set classes must subclass SetBase")
    SET_CLASSES[name] = cls
