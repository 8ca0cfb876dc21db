"""``python -m repro lint`` — the analyzer's command-line front end.

Runs the GMS rule pack over the repo (default: :data:`DEFAULT_PATHS`),
applies the committed baseline, and reports::

    repro lint                          # text report, exit 1 on new findings
    repro lint --format json            # gms-lint/v1 artifact on stdout
    repro lint --format json --output results/lint.json
    repro lint --select GMS001,GMS004   # only these rules
    repro lint --ignore GMS005          # all but these
    repro lint --rules                  # list the registered rules
    repro lint --write-baseline         # grandfather today's findings
    repro lint --no-baseline            # gate on *all* findings

Determinism is part of the artifact contract (the CI gate diffs it):
findings are sorted, paths are repo-relative with POSIX separators, and
the JSON contains no timestamps or absolute paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import Baseline
from .engine import LintError, analyze_paths, registered_rules
from .findings import Finding

__all__ = ["main", "LINT_SCHEMA", "DEFAULT_BASELINE_NAME", "DEFAULT_PATHS",
           "find_repo_root"]

LINT_SCHEMA = "gms-lint/v1"
DEFAULT_BASELINE_NAME = "lint_baseline.json"
#: What a run with no paths analyzes, relative to the repo root: every
#: Python tree of the repo but the frozen service benchmark.
DEFAULT_PATHS = ("src/repro", "benchmarks", "examples", "tests")


def find_repo_root(start: Path) -> Path:
    """Nearest ancestor holding ``src/repro`` (else *start* itself).

    The root anchors repo-relative finding paths, so the artifact and
    the baseline agree no matter which subdirectory the CLI ran from.
    """
    for candidate in [start, *start.parents]:
        if (candidate / "src" / "repro" / "__init__.py").is_file():
            return candidate
    return start


def _parse_rule_list(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    return [item.strip() for item in text.split(",") if item.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based project-invariant analyzer (GMS rule pack)",
        allow_abbrev=False,
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze "
             f"(default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument("--rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--select", metavar="IDS",
                        help="comma-separated rule ids to run")
    parser.add_argument("--ignore", metavar="IDS",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format (default: text)")
    parser.add_argument("--output", metavar="PATH",
                        help="also write the report to PATH")
    parser.add_argument("--baseline", metavar="PATH",
                        help=f"baseline file (default: "
                             f"<root>/{DEFAULT_BASELINE_NAME} when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline: gate on all findings")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to the baseline file "
                             "and exit 0")
    parser.add_argument("--root", metavar="DIR",
                        help="repo root for relative paths "
                             "(default: auto-detected)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    rules = registered_rules()
    if args.rules:
        for rule_id, rule in rules.items():
            print(f"{rule_id}  {rule.title}")
        return 0

    root = Path(args.root).resolve() if args.root else \
        find_repo_root(Path.cwd().resolve())
    paths = [Path(p) for p in args.paths] if args.paths else \
        [root / p for p in DEFAULT_PATHS]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        findings = analyze_paths(
            paths, root,
            select=_parse_rule_list(args.select),
            ignore=_parse_rule_list(args.ignore),
        )
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline) if args.baseline else \
        root / DEFAULT_BASELINE_NAME
    if args.write_baseline:
        Baseline.from_findings(findings).dump(baseline_path)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return 0

    baseline = Baseline()
    if not args.no_baseline and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, KeyError) as exc:
            print(f"error: bad baseline: {exc}", file=sys.stderr)
            return 2
    new, baselined = baseline.partition(findings)
    stale = baseline.stale_entries(findings)

    report = _render(args, root, paths, rules, new, baselined, stale)
    if args.output:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(report + "\n", encoding="utf-8")
    print(report)
    return 1 if new else 0


def _render(args, root: Path, paths, rules, new: List[Finding],
            baselined: List[Finding], stale) -> str:
    if args.format == "json":
        return _render_json(args, root, paths, rules, new, baselined, stale)
    lines = [finding.format_text() for finding in new]
    if baselined:
        lines.append(f"# {len(baselined)} baselined finding(s) not shown "
                     f"(repro lint --no-baseline lists them)")
    if stale:
        lines.append(f"# {len(stale)} stale baseline entry(ies): the "
                     f"violation is gone — shrink the baseline file")
    lines.append(
        f"{'FAIL' if new else 'OK'}: {len(new)} new finding(s), "
        f"{len(baselined)} baselined, {len(stale)} stale baseline entries"
    )
    return "\n".join(lines)


def _render_json(args, root: Path, paths, rules, new: List[Finding],
                 baselined: List[Finding], stale) -> str:
    def relative(path: Path) -> str:
        try:
            return path.resolve().relative_to(root).as_posix()
        except ValueError:
            return path.as_posix()

    entries = sorted(
        [dict(f.to_dict(), baselined=False) for f in new]
        + [dict(f.to_dict(), baselined=True) for f in baselined],
        key=lambda e: (e["path"], e["line"], e["col"], e["rule"],
                       e["message"]),
    )
    payload = {
        "schema": LINT_SCHEMA,
        "paths": sorted(relative(p) for p in paths),
        "rules": {rule_id: rule.title for rule_id, rule in rules.items()},
        "selected": sorted(_parse_rule_list(args.select) or rules),
        "ignored": sorted(_parse_rule_list(args.ignore) or []),
        "findings": entries,
        "stale_baseline_entries": stale,
        "counts": {
            "new": len(new),
            "baselined": len(baselined),
            "total": len(new) + len(baselined),
            "stale_baseline": len(stale),
        },
        "ok": not new,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
