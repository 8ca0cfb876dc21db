"""Discrete-event simulation of parallel schedulers.

Turns the per-task cost profiles recorded by
:class:`~repro.runtime.workdepth.WorkDepthTracker` (costs of *real* Python
execution, measured per outer-loop task) into simulated makespans on ``p``
workers under three scheduling policies:

* ``"static"`` — contiguous chunking, like an OpenMP ``schedule(static)``
  loop: each worker receives an equal-length contiguous slice.
* ``"dynamic"`` — greedy list scheduling, like OpenMP ``schedule(dynamic)``:
  a free worker grabs the next task; a small per-grab overhead models the
  queue synchronization.
* ``"stealing"`` — randomized work stealing, like Intel TBB: dynamic plus a
  steal overhead per migration; the paper found TBB consistently a little
  *slower* than OpenMP for BK (section 8.2), which the higher overhead
  reproduces.

The simulation is deterministic given the task list.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

__all__ = [
    "simulate_makespan",
    "speedup_curve",
    "static_chunks",
    "SCHEDULER_POLICIES",
]

SCHEDULER_POLICIES = ("static", "dynamic", "stealing")

#: Fractional per-task overheads of the dynamic policies (relative to the
#: mean task cost); stealing pays more per migration than a shared queue.
_DYNAMIC_OVERHEAD = 0.01
_STEALING_OVERHEAD = 0.05


def simulate_makespan(
    task_costs: Sequence[float], threads: int, policy: str = "dynamic"
) -> float:
    """Simulate executing *task_costs* on *threads* workers; return makespan."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    costs = [float(c) for c in task_costs]
    if not costs:
        return 0.0
    if threads == 1:
        return sum(costs)
    if policy == "static":
        return _static_makespan(costs, threads)
    if policy in ("dynamic", "stealing"):
        overhead = _DYNAMIC_OVERHEAD if policy == "dynamic" else _STEALING_OVERHEAD
        return _greedy_makespan(costs, threads, overhead)
    raise ValueError(f"unknown policy {policy!r}; known: {SCHEDULER_POLICIES}")


def static_chunks(num_tasks: int, threads: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` slices of the static policy.

    Empty trailing chunks (more threads than tasks) are omitted.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    # max() only guards num_tasks == 0 (range's step must be nonzero).
    chunk = max(1, (num_tasks + threads - 1) // threads)
    return [
        (start, min(start + chunk, num_tasks))
        for start in range(0, num_tasks, chunk)
    ]


def _static_makespan(costs: List[float], threads: int) -> float:
    finish = 0.0
    for start, end in static_chunks(len(costs), threads):
        finish = max(finish, sum(costs[start:end]))
    return finish


def _greedy_makespan(costs: List[float], threads: int, overhead_frac: float) -> float:
    mean_cost = sum(costs) / len(costs)
    overhead = overhead_frac * mean_cost
    # Min-heap of worker finish times; tasks dispatched in order.
    workers = [0.0] * min(threads, len(costs))
    heapq.heapify(workers)
    for cost in costs:
        start = heapq.heappop(workers)
        heapq.heappush(workers, start + cost + overhead)
    return max(workers)


def speedup_curve(
    task_costs: Sequence[float],
    thread_counts: Sequence[int],
    policy: str = "dynamic",
    sequential_fraction: float = 0.0,
) -> List[float]:
    """Simulated speedups over 1 thread for each entry of *thread_counts*.

    ``sequential_fraction`` adds an Amdahl term for the non-parallelized
    part of the computation (e.g. the reordering preprocessing when it is
    run sequentially).
    """
    base = sum(float(c) for c in task_costs)
    seq = base * sequential_fraction
    out = []
    for p in thread_counts:
        par = simulate_makespan(task_costs, p, policy)
        out.append((base + seq) / (par + seq) if (par + seq) > 0 else 1.0)
    return out
