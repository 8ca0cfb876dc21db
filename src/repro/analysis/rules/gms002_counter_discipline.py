"""GMS002 — counter discipline in SetBase backends.

The normative contract of :mod:`repro.core.counters` (module docstring)
is that every backend op method that touches member storage accounts
its element traffic: bulk ops record ``|A| + |B|`` reads plus their
writes, point ops record through ``record_point``.  Identical op
sequences must produce identical counter deltas across exact backends —
the property the cross-backend regression tests pin, and the one a new
backend method silently breaks when it does its array math without
recording.

The rule inspects every class whose (lexical) base resolves to
``SetBase``, to a ``*Set`` backend of :mod:`repro.core` or
:mod:`repro.approx`, or to a known local subclass in the same module, and
flags overridden op methods whose body shows *no accounting evidence*:

* no reference to the global ``COUNTERS`` block (record calls or
  direct ``elements_written`` bumps),
* no delegation to another algebra method (``self.x()``, ``super().x()``
  or ``other_set.x()`` for an op-method name, with ``other_set`` a
  parameter or a local — delegated work is accounted by the delegate;
  a call on private storage such as ``self._d.add(v)`` mutates a raw
  container and is no delegation),
* no call to a same-module helper that itself references ``COUNTERS``,
* no call into :mod:`repro.core.counters`.

Abstract bodies (docstring-only / ``...`` / ``raise``) are exempt:
they define the interface, they do not touch storage.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from ..engine import Finding, ModuleContext, Rule, register
from ..resolve import dotted_name

#: Methods of the SetBase surface that touch member storage and must
#: account (bulk family + point family + the Listing-1 overloads + the
#: SISA bulk instructions).
OP_METHODS = frozenset({
    "intersect", "union", "diff",
    "intersect_count", "union_count", "diff_count",
    "intersect_inplace", "union_inplace", "diff_inplace",
    "intersect_assign", "intersect_count_many", "intersect_count_argmax",
    "intersect_count_pairs", "pivot_branch", "maximal_clique_count",
    "clique_count", "clique_branch", "clique_count_arcs",
    "diff_element", "union_element",
    "contains", "add", "remove",
})

#: Fully-qualified prefixes whose callees account internally.
_ACCOUNTED_MODULES = ("repro.core.counters",)

#: Packages whose ``*Set`` classes are SetBase backends.
_BACKEND_PACKAGES = ("repro.core.", "repro.approx.")

_COUNTERS_SUFFIX = ".COUNTERS"


def _counter_reference(ctx: ModuleContext, node: ast.AST) -> bool:
    """Does *node* (a Name/Attribute chain) denote the COUNTERS block?"""
    resolved = ctx.resolve(node)
    if resolved is None:
        return False
    return resolved == "COUNTERS" or resolved.endswith(_COUNTERS_SUFFIX) \
        or ".COUNTERS." in resolved or resolved.startswith("COUNTERS.")


class _AccountingScan(ast.NodeVisitor):
    """Scan one method body for any accounting evidence."""

    def __init__(self, ctx: ModuleContext, class_methods: Set[str],
                 accounted_helpers: Set[str], set_names: Set[str]) -> None:
        self.ctx = ctx
        self.class_methods = class_methods
        self.accounted_helpers = accounted_helpers
        self.set_names = set_names
        self.found = False

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _counter_reference(self.ctx, node):
            self.found = True
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if _counter_reference(self.ctx, node):
            self.found = True

    def _can_be_set(self, receiver: ast.expr) -> bool:
        """Is *receiver* ``self``, ``super()``, a parameter or a local?"""
        if isinstance(receiver, ast.Name):
            return receiver.id in self.set_names
        return (isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and self._can_be_set(func.value):
            # Delegation to an algebra method on a receiver that can be a
            # set; ``X._d.add(v)`` is a raw storage update, not one.
            if func.attr in OP_METHODS or func.attr in self.class_methods:
                self.found = True
        resolved = self.ctx.resolve(func)
        if resolved is not None:
            if resolved in self.accounted_helpers:
                self.found = True
            if resolved.startswith(_ACCOUNTED_MODULES):
                self.found = True
        self.generic_visit(node)


def _bound_names(method: ast.FunctionDef) -> Set[str]:
    """The method's parameters (``self`` included) and locals."""
    args = method.args
    names = {arg.arg for arg in (args.posonlyargs + args.args
                                 + args.kwonlyargs)}
    names.update(arg.arg for arg in (args.vararg, args.kwarg) if arg)
    names.update(node.id for node in ast.walk(method)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store))
    return names


def _is_abstract_body(body: List[ast.stmt]) -> bool:
    """Docstring-only / ``...`` / ``raise`` bodies define, not implement."""
    real = [
        stmt for stmt in body
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant))
    ]
    if not real:
        return True
    return all(isinstance(stmt, (ast.Raise, ast.Pass)) for stmt in real)


def _module_helpers_with_counters(ctx: ModuleContext) -> Set[str]:
    """Names of same-module functions whose bodies reference COUNTERS."""
    helpers: Set[str] = set()
    for node in ctx.tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Name, ast.Attribute)) \
                    and _counter_reference(ctx, sub):
                helpers.add(node.name)
                break
    return helpers


@register
class CounterDisciplineRule(Rule):
    id = "GMS002"
    title = ("SetBase backend op methods must account element traffic "
             "via Counters")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        subclasses = _set_base_subclasses(ctx)
        if not subclasses:
            return
        helpers = _module_helpers_with_counters(ctx)
        for class_node in subclasses:
            method_names = {
                stmt.name for stmt in class_node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for stmt in class_node.body:
                if not isinstance(stmt,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if stmt.name not in OP_METHODS:
                    continue
                if _is_abstract_body(stmt.body):
                    continue
                scan = _AccountingScan(ctx, method_names - {stmt.name},
                                       helpers, _bound_names(stmt))
                for body_stmt in stmt.body:
                    scan.visit(body_stmt)
                    if scan.found:
                        break
                if not scan.found:
                    yield ctx.finding(
                        stmt, self.id,
                        f"{class_node.name}.{stmt.name} touches member "
                        f"storage without accounting element traffic "
                        f"(call COUNTERS.record_bulk/record_point or "
                        f"delegate to an accounted algebra method)",
                    )


def _set_base_subclasses(ctx: ModuleContext) -> List[ast.ClassDef]:
    """Classes lexically derived from SetBase (direct, via a backend
    imported from the set packages, or via a local chain of bases defined
    in the same module)."""
    classes = [node for node in ast.walk(ctx.tree)
               if isinstance(node, ast.ClassDef)]
    derived: Dict[str, bool] = {}

    def is_set_base(expr: ast.expr) -> bool:
        dotted = dotted_name(expr)
        if dotted is None:
            return False
        resolved = ctx.imports.resolve_dotted(dotted)
        if resolved.split(".")[-1] == "SetBase":
            return True
        # A backend imported from the set packages (a subclass of
        # SortedSet, say) is a SetBase subclass defined in another module.
        if resolved.startswith(_BACKEND_PACKAGES) and resolved.endswith("Set"):
            return True
        return derived.get(dotted.split(".")[-1], False)

    # Two passes so a local chain (SetBase -> A -> B) resolves without
    # a full topological sort; deeper chains converge by iteration.
    for _ in range(3):
        for node in classes:
            if derived.get(node.name):
                continue
            derived[node.name] = any(is_set_base(base)
                                     for base in node.bases)
    return [node for node in classes if derived.get(node.name)]
