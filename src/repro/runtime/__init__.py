"""Simulated parallel runtime: work–depth, schedulers, PAPI facade, metrics."""

from .metrics import Span, algorithmic_throughput, peak_memory_bytes, timed_tasks
from .papi import PAPI_L3_TCM, PAPI_MEM_SCY, PAPI_RES_STL, PAPIW, StallModel
from .scheduler import (
    SCHEDULER_POLICIES,
    simulate_makespan,
    speedup_curve,
    static_chunks,
)
from .workdepth import WorkDepthReport, WorkDepthTracker

__all__ = [
    "WorkDepthTracker",
    "WorkDepthReport",
    "simulate_makespan",
    "static_chunks",
    "speedup_curve",
    "SCHEDULER_POLICIES",
    "PAPIW",
    "StallModel",
    "PAPI_MEM_SCY",
    "PAPI_RES_STL",
    "PAPI_L3_TCM",
    "Span",
    "timed_tasks",
    "algorithmic_throughput",
    "peak_memory_bytes",
]
