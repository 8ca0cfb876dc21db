"""Benchmarking platform: CLI, harness, suite and session (paper section 5)."""

from .aggregate import aggregate_results
from .bench import (
    ARTIFACT_DIR,
    parallel_reorder_seconds,
    print_table,
    simulated_parallel_seconds,
    write_artifact,
)
from .cli import resolve_set_class
from .runner import diff_payloads, strip_timing
from .session import MiningSession, Query, QueryResult
from .suite import (
    SUITE_KERNELS,
    ExperimentPlan,
    SuiteKernel,
    register_suite_kernel,
)

__all__ = [
    "resolve_set_class",
    "MiningSession",
    "Query",
    "QueryResult",
    "parallel_reorder_seconds",
    "simulated_parallel_seconds",
    "print_table",
    "write_artifact",
    "ARTIFACT_DIR",
    "ExperimentPlan",
    "SuiteKernel",
    "SUITE_KERNELS",
    "register_suite_kernel",
    "strip_timing",
    "diff_payloads",
    "aggregate_results",
]
