"""Benchmarking platform: pipeline, CLI, harness (paper section 5)."""

from .aggregate import aggregate_results
from .bench import (
    ARTIFACT_DIR,
    parallel_reorder_seconds,
    print_table,
    simulated_parallel_seconds,
    write_artifact,
)
from .budget_sweep import run_budget_sweep
from .cli import (
    Args,
    add_parallel_args,
    add_sketch_budget_args,
    build_parser,
    parse_args,
    resolve_set_class,
    resolve_set_class_for_graph,
)
from .pipeline import Pipeline, PipelineReport, StageRecord
from .runner import diff_payloads, run_suite_parallel, strip_timing
from .session import MiningSession, Query, QueryResult
from .suite import (
    SUITE_KERNELS,
    ExperimentPlan,
    SuiteKernel,
    register_suite_kernel,
)

__all__ = [
    "Pipeline",
    "PipelineReport",
    "StageRecord",
    "Args",
    "add_parallel_args",
    "add_sketch_budget_args",
    "build_parser",
    "parse_args",
    "resolve_set_class",
    "resolve_set_class_for_graph",
    "MiningSession",
    "Query",
    "QueryResult",
    "parallel_reorder_seconds",
    "run_budget_sweep",
    "simulated_parallel_seconds",
    "print_table",
    "write_artifact",
    "ARTIFACT_DIR",
    "ExperimentPlan",
    "SuiteKernel",
    "SUITE_KERNELS",
    "register_suite_kernel",
    "run_suite_parallel",
    "strip_timing",
    "diff_payloads",
    "aggregate_results",
]
