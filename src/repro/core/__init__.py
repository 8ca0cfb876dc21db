"""Set-algebra core of the GMS platform (paper section 5).

Exports the abstract :class:`~repro.core.interface.SetBase` interface, the
concrete set representations (including the density-adaptive
``adaptive`` backend), the merge/galloping/packed-bitmap kernels, the
set-class registry, and the software performance counters.
"""

from .bit_set import BitSet
from .compressed_set import CompressedSortedSet
from .counters import COUNTERS, Snapshot, merge_snapshots, reset, snapshot
from .dispatch import (
    AdaptiveSet,
    choose_intersect_algorithm,
    choose_representation,
)
from .hash_set import HashSet
from .interface import SetBase
from .ops import (
    as_sorted_unique,
    diff_merge,
    intersect_count_galloping,
    intersect_count_merge,
    intersect_galloping,
    intersect_merge,
    member_mask_galloping,
    member_mask_merge,
    union_merge,
)
from .registry import (
    SET_CLASSES,
    get_set_class,
    register_set_class,
    registered_set_classes,
    set_class_names,
)
from .roaring import ARRAY_CONTAINER_MAX, RoaringSet
from .sorted_set import SortedSet

__all__ = [
    "SetBase",
    "SortedSet",
    "BitSet",
    "RoaringSet",
    "HashSet",
    "CompressedSortedSet",
    "AdaptiveSet",
    "choose_intersect_algorithm",
    "choose_representation",
    "ARRAY_CONTAINER_MAX",
    "SET_CLASSES",
    "get_set_class",
    "register_set_class",
    "registered_set_classes",
    "set_class_names",
    "COUNTERS",
    "Snapshot",
    "merge_snapshots",
    "snapshot",
    "reset",
    "as_sorted_unique",
    "intersect_merge",
    "intersect_galloping",
    "intersect_count_merge",
    "intersect_count_galloping",
    "union_merge",
    "diff_merge",
    "member_mask_merge",
    "member_mask_galloping",
]
