"""Set-class resolution under the sketch budgets.

Every command-line knob is an :class:`~repro.platform.suite.ExperimentPlan`
field, declared once by :func:`repro.platform.suite.add_knob_flags`; this
module turns a backend name and budget knobs into the set class a kernel
runs.  :func:`repro.platform.suite.resolve_backend` supplies the graph's
size, the one other input, for every cell.
"""

from __future__ import annotations

from typing import Type

from ..core.interface import SetBase
from ..core.registry import get_set_class

__all__ = ["resolve_set_class"]


def resolve_set_class(
    set_class: str, *, bloom_bits: int = 0, kmv_k: int = 0,
    bloom_shared_bits: int = 0, num_sets: int = 0,
    bloom_fpr: float = 0.0, avg_set_size: float = 0.0,
) -> Type[SetBase]:
    """Resolve a set-class name, applying any sketch-budget overrides.

    ``bloom_bits``/``kmv_k`` of 0 keep the registered class defaults; other
    values derive a budget-configured subclass via the approx factories.
    The overrides key on the resolved class's family, so user-registered
    Bloom/KMV subclasses honor the flags too.  A nonzero
    ``bloom_shared_bits`` *and* ``num_sets`` derive a shared-budget class
    (one fixed ``m = bloom_shared_bits / num_sets`` for all instances),
    taking precedence over the per-element ``bloom_bits``.

    A nonzero ``bloom_fpr`` (with ``num_sets`` and ``avg_set_size``) takes
    precedence over both explicit bit budgets: the per-set filter size is
    auto-derived by inverting the Swamidass–Baldi fill model
    (:func:`~repro.approx.estimators.bloom_bits_for_fpr`) for a set of the
    average size, and the shared total is that size times ``num_sets`` —
    the operator states the accuracy target, the platform picks the budget.

    The budget factories derive one class object per budget, so equal
    inputs resolve to the same class.
    """
    cls = get_set_class(set_class)
    from ..approx import BloomFilterSet, KMVSketchSet

    if issubclass(cls, BloomFilterSet):
        if bloom_fpr and num_sets and avg_set_size:
            from ..approx.estimators import bloom_bits_for_fpr

            per_set = bloom_bits_for_fpr(
                max(1, int(round(avg_set_size))), bloom_fpr, cls.NUM_HASHES
            )
            # Round the per-set size *up* to a power of two before scaling
            # to the shared total, so the factory's power-of-two floor
            # lands exactly here and the realized FPR stays ≤ the target.
            per_set = 1 << max(per_set - 1, 0).bit_length()
            return cls.with_shared_budget(
                max(64, per_set) * num_sets, num_sets
            )
        if bloom_shared_bits and num_sets:
            return cls.with_shared_budget(bloom_shared_bits, num_sets)
        if bloom_bits:
            return cls.with_budget(bits_per_element=bloom_bits)
        return cls
    if kmv_k and issubclass(cls, KMVSketchSet):
        return cls.with_k(kmv_k)
    return cls
