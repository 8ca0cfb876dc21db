"""``repro.analysis`` — project-invariant static analysis (``repro lint``).

An AST-based analyzer that mechanically enforces the contracts the
suite's correctness-and-comparability story rests on: all mining goes
through the :class:`SetBase` algebra (GMS001), every backend op
accounts its element traffic (GMS002), shared resources are released on
every path (GMS003), no exception is swallowed silently (GMS004), and
artifact values are deterministic (GMS005).

Entry points
------------
* ``python -m repro lint`` — the CLI (:mod:`repro.analysis.cli`);
* :func:`analyze_paths` / :func:`analyze_source` — the library API the
  tests drive;
* :func:`registered_rules` — the plugin registry.

The package is deliberately stdlib-only (``ast`` + ``tokenize``): the
linter must run in environments where the suite's numeric dependencies
are absent or broken — that is often exactly when you want it.
"""

from .baseline import Baseline, BASELINE_SCHEMA
from .engine import (
    LintError,
    ModuleContext,
    Rule,
    analyze_paths,
    analyze_source,
    iter_python_files,
    register,
    registered_rules,
)
from .findings import Finding

__all__ = [
    "Baseline",
    "BASELINE_SCHEMA",
    "Finding",
    "LintError",
    "ModuleContext",
    "Rule",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "register",
    "registered_rules",
]
