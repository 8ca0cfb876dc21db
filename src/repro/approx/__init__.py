"""Approximate set-algebra backends (ProbGraph-style probabilistic sets).

GraphMineSuite's modularity claim (paper §5.1) is that kernels written
against the :class:`~repro.core.interface.SetBase` interface accept *any*
set representation.  ProbGraph (Besta et al., 2022) pushes that to
probabilistic representations: Bloom filters and MinHash/KMV sketches whose
set-intersection **cardinality estimates** trade a bounded accuracy loss
for large speedups on intersection-heavy kernels (triangle counting,
k-clique counting, vertex similarity).  This package provides both
families, registered as ``"bloom"`` and ``"kmv"`` in the set-class
registry, so e.g. ``triangle_count_node_iterator(g, set_cls=BloomFilterSet)``
runs unmodified and returns an estimate.

Design: sketch-augmented sets
-----------------------------
Both classes keep the **exact sorted member array** next to the sketch
(exactly how ProbGraph augments the CSR neighborhoods with per-vertex
sketches).  Iteration, ``cardinality``, ``to_array`` and equality are
therefore exact, while probes and count estimators go through the sketch.
Guarantees, with ``A*``/``B*`` the true member sets:

=====================  =================================================
operation              guarantee
=====================  =================================================
``contains``           Bloom: no false negatives; KMV: exact
``intersect``          Bloom: ``A* ∩ B* ⊆ result ⊆ A*``; KMV: exact
``diff``               Bloom: ``result ⊆ A* \\ B*``; KMV: exact
``union``              exact (both)
``intersect_count``    estimate clamped to ``[0, min(|A|, |B|)]``
``union_count``        estimate clamped to ``[max(|A|, |B|), |A| + |B|]``
``diff_count``         ``|A| -`` intersection estimate, in ``[0, |A|]``
=====================  =================================================

Estimator math and error bounds
-------------------------------
See :mod:`repro.approx.estimators` for derivations.  In short:

* **Bloom** (``m`` bits, ``k`` hashes): cardinality from popcount ``t`` via
  the Swamidass–Baldi inversion ``n̂(t) = -(m/k)·ln(1 - t/m)``; intersection
  by inclusion–exclusion over the bitwise OR, with standard deviation
  ``≈ sqrt(|A|·|B|/m)`` in the sparse regime, and membership false-positive
  rate ``(1 - e^{-kn/m})^k``.
* **KMV** (bottom-``K`` signature): distinct count ``n̂ = (K-1)/u_K`` with
  relative standard error ``≈ 1/sqrt(K-2)``; intersection via the merged
  bottom-k Jaccard estimate ``ρ̂ · |A ∪ B|^`` (Beyer et al.).

Budgets are tunable per class: :func:`~repro.approx.bloom.bloom_set_class`
(bits per element, hash count), :func:`~repro.approx.bloom.
shared_bloom_set_class` (one filter size per graph) and
:func:`~repro.approx.kmv.kmv_set_class` (signature size) derive configured
subclasses.  Their accuracy is measured as suite cells, each next to the
``sorted`` reference with its ``rel_error``:
``python -m repro suite --set-classes bloom --bloom-bits 8`` for one
budget, and ``benchmarks/bench_probgraph_accuracy.py`` for the ProbGraph
speed-vs-accuracy curve over all of them.
"""

from ..core.registry import register_set_class
from .bloom import BloomFilterSet, bloom_set_class, shared_bloom_set_class
from .estimators import (
    bloom_cardinality_estimate,
    bloom_false_positive_rate,
    bloom_intersection_estimate,
    bloom_intersection_stddev,
    kmv_cardinality_estimate,
    kmv_intersection_estimate,
    kmv_jaccard_estimate,
    kmv_merge,
    kmv_relative_stderr,
)
from .hashing import bloom_indices, kmv_hashes, splitmix64
from .kmv import KMVSketchSet, kmv_set_class

__all__ = [
    "BloomFilterSet",
    "bloom_set_class",
    "shared_bloom_set_class",
    "KMVSketchSet",
    "kmv_set_class",
    "splitmix64",
    "bloom_indices",
    "kmv_hashes",
    "bloom_cardinality_estimate",
    "bloom_intersection_estimate",
    "bloom_intersection_stddev",
    "bloom_false_positive_rate",
    "kmv_cardinality_estimate",
    "kmv_intersection_estimate",
    "kmv_jaccard_estimate",
    "kmv_merge",
    "kmv_relative_stderr",
]

# Self-registration: importing this package (directly, or lazily through
# repro.core.registry) exposes the approximate backends by name.
register_set_class("bloom", BloomFilterSet)
register_set_class("kmv", KMVSketchSet)
