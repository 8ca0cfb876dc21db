"""GMS003 — OS-resource lifecycle: shared memory and worker pools.

A ``multiprocessing.shared_memory.SharedMemory`` segment created and
then dropped on an exception path squats in ``/dev/shm`` until reboot;
a ``ProcessPoolExecutor`` or ``ThreadPoolExecutor`` that is never shut
down leaves its worker processes or threads running (a session pool
orphaned by SIGTERM is this leak class).  This rule requires every
creation site to reach a release on all control-flow paths through one
of the accepted ownership patterns:

* ``with`` statement (context manager owns the release),
* direct ``return`` of the fresh resource (ownership transfers to the
  caller, who is a creation site of its own),
* direct argument to another call (ownership transferred to the callee),
* assignment to ``self.<attr>`` / ``self.<attr>[...]`` inside a class
  that defines ``close``/``__exit__``/``__del__`` (the instance owns it),
* local variable that is later (in the same function) stored into such
  a ``self`` slot, returned, registered with ``weakref.finalize``,
  entered via ``with``, or released (``close``, ``shutdown``, …) inside
  a ``try/finally``.

Anything else is an orphan creation: no path guarantees the release.
Servers created under ``await`` (``asyncio.start_server``) are out of
scope: the ownership analysis does not follow coroutines.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from ..engine import Finding, ModuleContext, Rule, register

#: Fully-qualified constructors that allocate a leakable OS resource.
_RESOURCE_FACTORIES = frozenset({
    "multiprocessing.shared_memory.SharedMemory",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
})

#: Method names whose presence marks a class as a resource owner.
_OWNER_METHODS = frozenset({"close", "__exit__", "__del__"})

#: Callee names (last dotted segment) that take over the release.
_RELEASE_HINTS = frozenset({
    "close", "unlink", "release", "finalize", "register", "shutdown",
})


@register
class ResourceLifecycleRule(Rule):
    id = "GMS003"
    title = ("SharedMemory and executor-pool creations must reach a "
             "release on every path")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        parents = _ParentMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved not in _RESOURCE_FACTORIES:
                continue
            if _creation_is_owned(ctx, node, parents):
                continue
            yield ctx.finding(
                node, self.id,
                f"{resolved.split('.')[-1]} created without a guaranteed "
                f"release path (use `with`, try/finally, "
                f"weakref.finalize, or store it on an owner that "
                f"defines close())",
            )


class _ParentMap:
    def __init__(self, tree: ast.AST) -> None:
        self._parent = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parent[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parent.get(node)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(self, node: ast.AST):
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None


def _creation_is_owned(ctx: ModuleContext, call: ast.Call,
                       parents: _ParentMap) -> bool:
    parent = parents.parent(call)
    # with SharedMemory(...) as x: ...
    if isinstance(parent, ast.withitem):
        return True
    # return SharedMemory(...)  — ownership transfers to the caller.
    if isinstance(parent, ast.Return):
        return True
    # f(SharedMemory(...)) / registry[...] = hand-off to another call.
    if isinstance(parent, ast.Call) and call in parent.args:
        return True
    if isinstance(parent, ast.Assign):
        return _assignment_is_owned(ctx, parent, parents)
    if isinstance(parent, (ast.AnnAssign, ast.AugAssign)):
        target = getattr(parent, "target", None)
        return target is not None and _target_is_owner_slot(target, parents,
                                                           parent)
    return False


def _assignment_is_owned(ctx: ModuleContext, assign: ast.Assign,
                         parents: _ParentMap) -> bool:
    for target in assign.targets:
        if _target_is_owner_slot(target, parents, assign):
            return True
        if isinstance(target, ast.Name):
            if _local_reaches_release(ctx, target.id, assign, parents):
                return True
    return False


def _target_is_owner_slot(target: ast.expr, parents: _ParentMap,
                          site: ast.AST) -> bool:
    """``self.x = ...`` / ``self.x[k] = ...`` inside an owner class."""
    base = target
    if isinstance(base, ast.Subscript):
        base = base.value
    if not (isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"):
        return False
    class_node = parents.enclosing_class(site)
    if class_node is None:
        return False
    methods = {
        stmt.name for stmt in class_node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    if methods & _OWNER_METHODS:
        return True
    # A finalizer registered anywhere in the class is ownership too.
    for stmt in ast.walk(class_node):
        if isinstance(stmt, ast.Call) and _is_release_call(stmt):
            return True
    return False


def _is_release_call(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else "")
    return name in _RELEASE_HINTS


def _local_reaches_release(ctx: ModuleContext, name: str, assign: ast.AST,
                           parents: _ParentMap) -> bool:
    """Does local *name* provably reach a release inside this function?"""
    function = parents.enclosing_function(assign)
    if function is None:
        return False
    for node in ast.walk(function):
        # try: ... finally: <anything naming the local + a release hint>
        if isinstance(node, ast.Try) and node.finalbody:
            for stmt in node.finalbody:
                if _names_local_in_release(stmt, name):
                    return True
        # with x: / with closing(x):
        if isinstance(node, ast.With):
            for item in node.items:
                if _expr_names_local(item.context_expr, name):
                    return True
        # weakref.finalize(owner, release, x) or x handed to a releaser.
        if isinstance(node, ast.Call) and _is_release_call(node):
            if any(_expr_names_local(arg, name) for arg in node.args):
                return True
            if isinstance(node.func, ast.Attribute) \
                    and _expr_names_local(node.func.value, name):
                return True
        # return x — ownership transferred to the caller.
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Name) and node.value.id == name:
                return True
        # self._segments[...] = x  /  self.attr = x — the instance owns it.
        if isinstance(node, ast.Assign):
            if any(isinstance(value, ast.Name) and value.id == name
                   for value in [node.value]) \
                    and any(_target_is_owner_slot(t, parents, node)
                            for t in node.targets):
                return True
    return False


def _names_local_in_release(stmt: ast.stmt, name: str) -> bool:
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call) and _is_release_call(node):
            if any(_expr_names_local(arg, name) for arg in node.args):
                return True
            if isinstance(node.func, ast.Attribute) \
                    and _expr_names_local(node.func.value, name):
                return True
    return False


def _expr_names_local(expr: ast.expr, name: str) -> bool:
    return any(isinstance(node, ast.Name) and node.id == name
               for node in ast.walk(expr))
