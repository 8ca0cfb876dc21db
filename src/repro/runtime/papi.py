"""PAPIW-compatible machine-efficiency facade (paper section 5.5, Listing 4).

GMS wraps the PAPI hardware-counter library behind ``GMS::PAPIW`` with the
idiom::

    GMS::PAPIW::INIT_PARALLEL(PAPI_MEM_SCY, PAPI_RES_STL);
    GMS::PAPIW::START();
    /* benchmarked parallel region */
    GMS::PAPIW::STOP();

This module reproduces that interface over the *software* counters of
:mod:`repro.core.counters`: the set-algebra layer records how many elements
every operation reads and writes, which is the memory traffic that makes
graph mining memory-bound (the paper's section 8.8 finding).

The stall model converts measured traffic into PAPI-flavoured numbers via a
roofline-style bandwidth argument: ``p`` threads share the memory
subsystem, so per-access latency grows once aggregate demand exceeds the
bandwidth knee.  Both reported quantities then behave like Figure 8b:
*total* stalled cycles grow with the thread count, and the stalled-cycle
*ratio* grows while the speedup flattens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .metrics import Span

__all__ = ["PAPIW", "StallModel", "PAPI_MEM_SCY", "PAPI_RES_STL", "PAPI_L3_TCM"]

# Counter-name constants mirroring the PAPI event names used in Listing 4.
PAPI_MEM_SCY = "PAPI_MEM_SCY"  # cycles stalled on memory accesses
PAPI_RES_STL = "PAPI_RES_STL"  # cycles stalled on any resource
PAPI_L3_TCM = "PAPI_L3_TCM"  # L3 total cache misses


@dataclass(frozen=True)
class Measurement:
    """Raw software-counter deltas for one START/STOP region."""

    set_ops: int
    point_ops: int
    elements_read: int
    elements_written: int
    wall_seconds: float

    @property
    def memory_traffic(self) -> int:
        return self.elements_read + self.elements_written


@dataclass(frozen=True)
class StallModel:
    """Roofline-style contention model.

    * ``compute_cpe`` — cycles of useful compute per element touched.
    * ``mem_cpe`` — uncontended memory cycles per element.
    * ``bandwidth_knee`` — number of threads the memory subsystem can feed
      at full speed; beyond it, per-access latency grows linearly, which is
      the mechanism behind Figure 8b's flattening speedups.
    * ``miss_rate`` — fraction of element touches that miss L3 (drives the
      simulated ``PAPI_L3_TCM``).
    """

    compute_cpe: float = 4.0
    mem_cpe: float = 6.0
    bandwidth_knee: int = 8
    miss_rate: float = 0.08

    def stalled_cycles(self, m: Measurement, threads: int) -> Tuple[float, float]:
        """Return ``(stalled_cycle_count, stalled_cycle_ratio)`` at *threads*.

        The count sums over all threads (like PAPI's aggregated counters in
        GMS's INIT_PARALLEL mode).
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        traffic = m.memory_traffic
        compute = m.memory_traffic * self.compute_cpe
        contention = max(1.0, threads / self.bandwidth_knee)
        stall_per_access = self.mem_cpe * contention
        stalled = traffic * stall_per_access
        total = compute + stalled
        return stalled, stalled / total if total else 0.0

    def contention_slowdown(self, m: Measurement, threads: int) -> float:
        """Multiplicative slowdown of a *makespan* due to memory contention.

        A p-thread schedule computed from per-task costs already models the
        division of compute; what it misses is that the measured task costs
        assume an uncontended memory subsystem.  Once aggregate demand
        passes the bandwidth knee, every memory access stretches by
        ``p / knee``, so the whole schedule stretches by the traffic-
        weighted factor returned here (≥ 1, and 1 below the knee).
        """
        contention = max(1.0, threads / self.bandwidth_knee)
        base = self.compute_cpe + self.mem_cpe
        return (self.compute_cpe + self.mem_cpe * contention) / base

    def runtime_scale(self, m: Measurement, threads: int) -> float:
        """Relative runtime at *threads* (1.0 = single thread).

        Compute scales with 1/p; the memory component stops scaling once
        aggregate bandwidth saturates at the knee.
        """
        compute = m.memory_traffic * self.compute_cpe
        mem = m.memory_traffic * self.mem_cpe
        single = compute + mem
        scaled = compute / threads + mem / min(threads, self.bandwidth_knee)
        return scaled / single if single else 1.0

    def cache_misses(self, m: Measurement) -> float:
        """Simulated L3 total cache misses for the region."""
        return m.memory_traffic * self.miss_rate


class PAPIW:
    """Process-wide PAPI wrapper facade (mirrors ``GMS::PAPIW``)."""

    _events: Tuple[str, ...] = ()
    _span: Optional[Span] = None
    _measurements: List[Measurement] = []

    @classmethod
    def INIT_PARALLEL(cls, *events: str) -> None:
        """Declare the events to gather for subsequent parallel regions."""
        cls._events = events or (PAPI_MEM_SCY, PAPI_RES_STL)
        cls._measurements = []

    @classmethod
    def START(cls) -> None:
        """Begin a measured region."""
        cls._span = Span().start()

    @classmethod
    def STOP(cls) -> Measurement:
        """End the region and store/return its measurement."""
        if cls._span is None:
            raise RuntimeError("PAPIW.STOP() without START()")
        span = cls._span.stop()
        delta = span.counters
        m = Measurement(
            set_ops=delta.set_ops,
            point_ops=delta.point_ops,
            elements_read=delta.elements_read,
            elements_written=delta.elements_written,
            wall_seconds=span.seconds,
        )
        cls._span = None
        cls._measurements.append(m)
        return m

    @classmethod
    def last(cls) -> Measurement:
        """Return the most recent measurement."""
        if not cls._measurements:
            raise RuntimeError("no PAPIW measurements recorded")
        return cls._measurements[-1]
