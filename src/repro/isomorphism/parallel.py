"""Parallel subgraph isomorphism: the GMS optimization ladder (section 6.4).

The paper accelerates the parallel VF3-Light baseline with, cumulatively:

1. **work splitting** — threads receive lists of root vertices from which
   they start recursive backtracking;
2. **work stealing** — idle threads steal root vertices from a lock-free
   queue (diverse graph structure makes per-root costs highly variable);
3. **SIMD** — vectorized candidate filtering (here: numpy boolean masks in
   the domain computation, the Python stand-in for vectorized binary
   search);
4. **precompute** — candidate domains per query vertex computed once,
   up front.

Because the GIL forbids real thread parallelism, each per-root backtracking
task is executed sequentially and *timed*, and the recorded task costs are
replayed through the discrete-event scheduler of
:mod:`repro.runtime.scheduler` to produce the thread-scaling curves of
Figure 7.  The relative ladder — each optimization shaving real measured
work, stealing fixing the load imbalance that static splitting leaves — is
preserved because the task costs are real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..runtime.metrics import Span, timed_tasks
from ..runtime.scheduler import simulate_makespan
from .vf3light import _domains, vf3light_embeddings

__all__ = ["SIVariantResult", "run_si_variant", "SI_VARIANTS", "si_scaling_curve"]

#: The Figure 7 ladder, from baseline to fully optimized.
SI_VARIANTS = (
    "baseline",  # VF3-Light, no precompute, static splitting
    "splitting",  # + work splitting (finer tasks)
    "stealing",  # + work stealing
    "simd",  # + vectorized candidate filtering
    "precompute",  # + precomputed candidate domains
)


@dataclass
class SIVariantResult:
    """Per-variant outcome: embeddings, task costs, scheduling policy."""

    variant: str
    embeddings: int
    task_costs: List[float]
    policy: str
    setup_seconds: float = 0.0

    def simulated_runtime(self, threads: int) -> float:
        """Simulated wall time on *threads* workers (+ sequential setup)."""
        return self.setup_seconds + simulate_makespan(
            self.task_costs, threads, self.policy
        )


def _variant_flags(variant: str) -> Dict[str, object]:
    if variant not in SI_VARIANTS:
        raise ValueError(f"unknown SI variant {variant!r}; known: {SI_VARIANTS}")
    ladder = SI_VARIANTS.index(variant)
    return {
        "chunked": ladder < 1,  # baseline: coarse chunks of roots
        "policy": "static" if ladder < 2 else "dynamic",
        "simd": ladder >= 3,
        "precompute": ladder >= 4,
    }


def run_si_variant(
    target: CSRGraph,
    queries: Sequence[CSRGraph],
    variant: str,
    *,
    induced: bool = True,
    target_labels: Optional[np.ndarray] = None,
    query_labels: Optional[Sequence[np.ndarray]] = None,
    limit_per_root: Optional[int] = None,
) -> SIVariantResult:
    """Execute (sequentially, timed per task) one Figure 7 variant.

    A *task* is one ``(query, root vertex)`` backtracking subtree in the
    fine-splitting variants, or a contiguous chunk of roots in the coarse
    baseline.
    """
    flags = _variant_flags(variant)
    simd = bool(flags["simd"])
    n = target.num_nodes
    all_roots = list(range(n))
    if flags["chunked"]:
        chunk = max(1, n // 8)
        roots_groups = [all_roots[i : i + chunk] for i in range(0, n, chunk)]
    else:
        roots_groups = [[r] for r in all_roots]
    setups: List[float] = []

    def root_tasks(query, ql, precompute):
        for roots in roots_groups:
            yield sum(
                1
                for _ in vf3light_embeddings(
                    target,
                    query,
                    induced=induced,
                    target_labels=target_labels,
                    query_labels=ql,
                    roots=roots,
                    precompute=precompute,
                    simd=simd,
                    limit=limit_per_root,
                )
            )

    def groups():
        for qi, query in enumerate(queries):
            ql = query_labels[qi] if query_labels is not None else None
            precompute: Union[bool, List[np.ndarray]] = False
            if flags["precompute"]:
                # The precompute variant pays domain setup once per
                # query, counted as (parallelizable but tiny) setup cost,
                # and every root task of the query shares the domains.
                with Span() as setup:
                    precompute = _domains(target, query, target_labels,
                                          ql, simd)
                setups.append(setup.seconds)
            yield root_tasks(query, ql, precompute)

    total, task_costs, _ = timed_tasks(groups())
    return SIVariantResult(
        variant=variant,
        embeddings=total,
        task_costs=task_costs,
        policy=str(flags["policy"]),
        setup_seconds=sum(setups, 0.0),
    )


def si_scaling_curve(
    result: SIVariantResult, thread_counts: Sequence[int]
) -> List[float]:
    """Simulated runtimes at each thread count (the Figure 7 y-axis)."""
    return [result.simulated_runtime(p) for p in thread_counts]
