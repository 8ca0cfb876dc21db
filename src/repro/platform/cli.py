"""GMS-style CLI argument handling (``GMS::CLI::Args`` of Listing 3).

Benchmarks and examples share a single argument surface: dataset selection,
set representation, vertex ordering, thread counts for the simulated
scaling runs, sketch budgets for the probabilistic representations, and
output control.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional, Type

from ..core.dispatch import DISPATCH_MODES
from ..core.interface import SetBase
from ..core.registry import get_set_class, set_class_names
from ..preprocess.ordering import ORDERINGS

__all__ = [
    "Args",
    "add_dispatch_args",
    "add_parallel_args",
    "add_sketch_budget_args",
    "build_parser",
    "parse_args",
    "resolve_set_class",
    "resolve_set_class_for_graph",
]


def add_parallel_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared parallel-execution flags.

    Used by the ``python -m repro suite`` and ``serve`` parsers so
    ``--workers``/``--cache-budget-bytes`` mean the same thing everywhere.
    """
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool workers for suite execution "
                             "(1 = sequential, in-process)")
    parser.add_argument("--cache-budget-bytes", type=int, default=0,
                        help="MaterializationCache LRU budget in bytes "
                             "(per process; sized via SetGraph."
                             "storage_bytes; 0 = unbounded)")


def add_dispatch_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared set-op dispatch flag.

    ``--dispatch adaptive`` swaps every *exact* set backend for the
    density-adaptive :class:`~repro.core.dispatch.AdaptiveSet` (per-
    neighborhood bitmap-vs-array organization, per-call merge-vs-gallop
    algorithm).  Sketch backends keep their budget-tuned classes.  Results
    are bit-identical either way — only the kernels serving them change.
    """
    parser.add_argument("--dispatch", default="static",
                        choices=DISPATCH_MODES,
                        help="set-op dispatch: 'static' keeps the chosen "
                             "set class everywhere; 'adaptive' picks the "
                             "organization per neighborhood and the "
                             "intersection algorithm per call")


def add_sketch_budget_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared sketch-budget flags for the approximate backends.

    Used by both the benchmark parser below and the ``python -m repro
    approx`` subcommand so the flags stay in sync.
    """
    parser.add_argument("--bloom-bits", type=int, default=0,
                        help="Bloom budget in bits per element "
                             "(set-class 'bloom'; 0 = class default)")
    parser.add_argument("--bloom-shared-bits", type=int, default=0,
                        help="total Bloom budget in bits shared across the "
                             "whole graph: m = total/n fixed for every "
                             "neighborhood, making all pairs eligible for "
                             "the popcount estimator (0 = per-set sizing)")
    parser.add_argument("--bloom-fpr", type=float, default=0.0,
                        help="target false-positive rate for the Bloom "
                             "probes: auto-sizes a shared per-graph budget "
                             "by inverting the Swamidass-Baldi fill model "
                             "for the average neighborhood size (takes "
                             "precedence over the explicit bit budgets; "
                             "0 = disabled)")
    parser.add_argument("--kmv-k", type=int, default=0,
                        help="KMV signature size "
                             "(set-class 'kmv'; 0 = class default)")


@dataclass
class Args:
    """Parsed benchmark arguments."""

    dataset: str = "gearbox-mini"
    set_class: str = "bitset"
    ordering: str = "ADG"
    eps: float = 0.1
    threads: List[int] = None  # type: ignore[assignment]
    k: int = 4
    repeats: int = 3
    verbose: bool = False
    # Sketch budgets for the approximate backends; 0 keeps class defaults.
    bloom_bits: int = 0
    kmv_k: int = 0
    bloom_shared_bits: int = 0
    bloom_fpr: float = 0.0
    # Set-op dispatch policy ('static' or 'adaptive').
    dispatch: str = "static"

    def __post_init__(self) -> None:
        if self.threads is None:
            self.threads = [1, 2, 4, 8, 16, 32]

    def resolve_set_class(
        self, num_sets: int = 0, avg_set_size: float = 0.0
    ) -> Type[SetBase]:
        """Resolve ``set_class`` honoring the sketch-budget overrides.

        ``num_sets`` (usually the graph's vertex count) is required for the
        shared Bloom budget to take effect — without it the per-set sizing
        flags apply; ``avg_set_size`` (the mean neighborhood size) is
        additionally required for the ``--bloom-fpr`` auto-sizing.  Use
        :func:`resolve_set_class_for_graph` when a graph is at hand.
        """
        return resolve_set_class(
            self.set_class, bloom_bits=self.bloom_bits, kmv_k=self.kmv_k,
            bloom_shared_bits=self.bloom_shared_bits, num_sets=num_sets,
            bloom_fpr=self.bloom_fpr, avg_set_size=avg_set_size,
            dispatch=self.dispatch,
        )


def build_parser(description: str = "GMS reproduction benchmark") -> argparse.ArgumentParser:
    """Construct the shared argument parser."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--dataset", default="gearbox-mini", help="registry dataset name"
    )
    parser.add_argument(
        "--set-class",
        default="bitset",
        choices=set_class_names(),
        help="set representation (the 5+ modularity hook)",
    )
    parser.add_argument(
        "--ordering",
        default="ADG",
        choices=sorted(ORDERINGS),
        help="vertex reordering preprocessing (stage 3)",
    )
    parser.add_argument("--eps", type=float, default=0.1,
                        help="ADG approximation parameter")
    add_sketch_budget_args(parser)
    add_dispatch_args(parser)
    parser.add_argument("--k", type=int, default=4, help="clique size k")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--threads", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32],
        help="simulated thread counts",
    )
    parser.add_argument("--verbose", action="store_true")
    return parser


def parse_args(argv: Optional[List[str]] = None,
               description: str = "GMS reproduction benchmark") -> Args:
    """Parse *argv* into an :class:`Args`."""
    ns = build_parser(description).parse_args(argv)
    return Args(
        dataset=ns.dataset,
        set_class=ns.set_class,
        ordering=ns.ordering,
        eps=ns.eps,
        threads=list(ns.threads),
        k=ns.k,
        repeats=ns.repeats,
        verbose=ns.verbose,
        bloom_bits=ns.bloom_bits,
        kmv_k=ns.kmv_k,
        bloom_shared_bits=ns.bloom_shared_bits,
        bloom_fpr=ns.bloom_fpr,
        dispatch=ns.dispatch,
    )


def resolve_set_class(
    set_class: str, *, bloom_bits: int = 0, kmv_k: int = 0,
    bloom_shared_bits: int = 0, num_sets: int = 0,
    bloom_fpr: float = 0.0, avg_set_size: float = 0.0,
    dispatch: str = "static",
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

    ``dispatch="adaptive"`` swaps any resolved *exact* class for
    :class:`~repro.core.dispatch.AdaptiveSet`; the sketch backends are
    exempt — their accuracy contract is tied to the budget-configured
    class resolved below, and results must stay estimator-for-estimator
    comparable across dispatch modes.
    """
    if dispatch not in DISPATCH_MODES:
        raise ValueError(
            f"unknown dispatch mode {dispatch!r}; known: "
            + ", ".join(DISPATCH_MODES)
        )
    cls = get_set_class(set_class)
    if dispatch == "adaptive" and cls.IS_EXACT:
        from ..core.dispatch import AdaptiveSet

        return AdaptiveSet
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


def resolve_set_class_for_graph(
    graph, set_class: str, *, bloom_bits: int = 0, kmv_k: int = 0,
    bloom_shared_bits: int = 0, bloom_fpr: float = 0.0,
    dispatch: str = "static",
) -> Type[SetBase]:
    """Resolve a set-class name with the shared budget split over *graph*.

    The ``m = m_total / n`` choice happens here, once per graph — this is
    the only place the graph size (and, for ``bloom_fpr``, the average
    degree) and the budget meet: the suite, the parallel runner's
    workers, and :class:`~repro.platform.session.MiningSession` all
    resolve through it.
    """
    n = graph.num_nodes
    avg = 2.0 * graph.num_edges / n if n else 0.0
    return resolve_set_class(
        set_class, bloom_bits=bloom_bits, kmv_k=kmv_k,
        bloom_shared_bits=bloom_shared_bits, num_sets=n,
        bloom_fpr=bloom_fpr, avg_set_size=avg, dispatch=dispatch,
    )
