"""Performance metrics (paper sections 4.3 and 5.4).

Every metered region of the program is measured here, so kernels and
builders read no clock of their own:

* :class:`Span` — the wall seconds and the counter delta of one block:
  a stage of the benchmarking pipeline (Listing 3), a PAPI region
  (Listing 4), a cache build or a kernel pass;
* :func:`timed_tasks` — runs a kernel's tasks and times each one: the
  per-task costs the scheduling model replays;
* the **algorithmic throughput** metric — the number of mined graph
  patterns per second (maximal cliques/s, k-cliques/s, similarity pairs/s,
  …), the paper's "algorithmic efficiency";
* memory accounting helpers (peak construction memory via ``tracemalloc``).
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from typing import Callable, Iterable, List, Tuple

from ..core import counters as _counters

__all__ = [
    "Span",
    "timed_tasks",
    "algorithmic_throughput",
    "peak_memory_bytes",
]


class Span:
    """The wall seconds and counter delta of one block.

    ``with Span() as span: ...`` leaves ``span.seconds`` and
    ``span.counters``, the :class:`~repro.core.counters.Snapshot` delta
    of the block.  :meth:`start` and :meth:`stop` open and close a span
    that no single block holds (``PAPIW.START``/``STOP``).  The clock is
    read between the two counter snapshots, so taking them is not in the
    seconds.
    """

    __slots__ = ("seconds", "counters", "_before", "_t0")

    def start(self) -> "Span":
        self._before = _counters.snapshot()
        self._t0 = time.perf_counter()
        return self

    def stop(self) -> "Span":
        self.seconds = time.perf_counter() - self._t0
        self.counters = self._before.delta(_counters.snapshot())
        return self

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.stop()


def timed_tasks(
    groups: Iterable[Iterable[int]],
) -> Tuple[int, List[float], float]:
    """Run a kernel's tasks, timing each: ``(sum of the task values,
    seconds of each task, seconds of the whole loop)``.

    *groups* yields iterables of task values.  A task is the work until
    its value is yielded, so its seconds run from the end of the task
    before it in the same group.  Building a group (BK's block of initial
    sets, SI's per-query domains) is in the loop's seconds but in no
    task.  Timing a task costs one clock read and one append.
    """
    costs: List[float] = []
    append = costs.append
    clock = time.perf_counter
    total = 0
    start = clock()
    for tasks in groups:
        tv = clock()
        for value in tasks:
            total += value
            now = clock()
            append(now - tv)
            tv = now
    return total, costs, clock() - start


def algorithmic_throughput(patterns_mined: int, seconds: float) -> float:
    """Patterns mined per second — the GMS algorithmic-efficiency metric.

    For pattern matching this is subgraphs found per second (e.g. maximal
    cliques/s); for learning, vertex pairs scored per second; for
    clustering, clusters found per second (section 4.3).
    """
    if seconds <= 0:
        return float("inf") if patterns_mined else 0.0
    return patterns_mined / seconds


@contextmanager
def _tracing():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def peak_memory_bytes(fn: Callable[[], object]) -> Tuple[object, int]:
    """Run *fn* and return ``(result, peak allocated bytes)``.

    Used by the memory-consumption analysis (section 8.9) to compare the
    peak usage while *constructing* representations against their final
    sizes.
    """
    with _tracing():
        tracemalloc.reset_peak()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    return result, peak
