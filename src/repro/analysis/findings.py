"""Finding — the unit of output of the ``repro lint`` analyzer.

A finding pins one invariant violation to a source location: a
repo-relative path, a 1-based line, a 0-based column, the rule id that
fired (``GMS0xx``), and a human-readable message.  Findings are value
objects with a total order — ``(path, line, col, rule, message)`` — so
every emitter (text, JSON artifact, baseline diff) is deterministic
across machines and runs by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Field order is the sort order: findings sort by path, then line,
    then column, then rule id — the stable order the JSON artifact and
    the CI diff rely on.
    """

    path: str  # repo-relative, POSIX separators
    line: int  # 1-based, as reported by ast
    col: int  # 0-based column offset
    rule: str  # "GMS001" ... "GMS005"
    message: str

    def baseline_key(self) -> Tuple[str, str, str]:
        """The identity used for baseline matching.

        Deliberately excludes line/column so grandfathered findings
        survive unrelated edits that shift code up or down a file;
        a finding only escapes the baseline when its rule, file, or
        message changes.
        """
        return (self.rule, self.path, self.message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
