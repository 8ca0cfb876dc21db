"""GMS004 — no silent exception swallowing.

PRs 7/8 spent real debugging time on failures that had been caught and
dropped: shared-memory cleanup errors swallowed during teardown,
warm-payload pickling failures that silently degraded a dataset's
shipping.  The repo's sanctioned pattern is to swallow *loudly*: log the
exception at DEBUG with its traceback (as the HTTP server's request
boundary does), or route it through a ``_suppress``-style helper that
logs and counts it, so diagnostics have a trail even when the
suppression is deliberate.

This rule flags broad handlers — bare ``except:``, ``except
Exception``, ``except BaseException`` (alone or in a tuple) — whose
body neither re-raises nor leaves any trace: no logging call
(``logger.debug``/``warning``/``exception``/…, ``warnings.warn``) and
no call to a ``*suppress*`` helper.  Narrow handlers (``except
KeyError:``) are exempt: catching a specific exception is a decision,
catching everything silently is a trap.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Finding, ModuleContext, Rule, register

_BROAD = frozenset({"Exception", "BaseException"})

#: Method names that count as leaving a trace.
_LOG_METHODS = frozenset({
    "debug", "info", "warning", "warn", "error", "exception", "critical",
    "log",
})


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for expr in types:
        name = expr.attr if isinstance(expr, ast.Attribute) else (
            expr.id if isinstance(expr, ast.Name) else "")
        if name in _BROAD:
            return True
    return False


def _leaves_trace(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if name in _LOG_METHODS:
                return True
            if "suppress" in name:  # _suppress-style helpers
                return True
    return False


@register
class SilentSuppressionRule(Rule):
    id = "GMS004"
    title = ("broad except handlers must re-raise or route through "
             "logged suppression")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(node):
                continue
            if _leaves_trace(node):
                continue
            yield ctx.finding(
                node, self.id,
                "broad except handler swallows the exception silently; "
                "re-raise, or log it (logger.debug(..., exc_info=True) "
                "/ a _suppress-style helper) so failures stay "
                "diagnosable",
            )
