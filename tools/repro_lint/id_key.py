"""IdKey: ``id(...)`` never keys a container that outlives the call.

CPython reuses the ``id()`` of a freed object.  A container keyed by
``id(obj)`` that outlives ``obj`` can therefore answer for an unrelated
object that later lands on the same address — the matrix mechanism's old
support memo answered a workload its strategy cannot support that way.
Caches that outlive a call key on content (``repro.core.fingerprint``).

An ``id(...)`` call is a *key* when it is used, directly, inside a tuple,
or through a local name assigned from it, as

* the subscript of a container (``c[id(x)]``, read, write or delete),
* an argument of a container method (``c.add(id(x))``, ``c.get(id(x))``),
* the left operand of ``in`` / ``not in`` against a container.

The container *outlives the call* when it is an attribute
(``self._memo``), a module-level name, or a parameter of the enclosing
function (the caller owns it).  A container created as a local of the same
function lives for one call and is exempt.  The finding is reported at the
``id(...)`` call, so one pragma above a ``key = id(...)`` line covers every
use of ``key``.
"""

from __future__ import annotations

import ast

from .base import Checker, Finding, Project, SourceFile, unparse

#: Container methods whose arguments are keys or members.
KEYED_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "count",
        "discard",
        "get",
        "index",
        "insert",
        "move_to_end",
        "pop",
        "remove",
        "setdefault",
    }
)


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


def _module_names(tree: ast.Module) -> set[str]:
    """Names bound by assignments at module scope (outside defs and classes)."""
    names: set[str] = set()
    pending = list(tree.body)
    while pending:
        statement = pending.pop()
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for target in targets:
                names.update(
                    element.id for element in ast.walk(target) if isinstance(element, ast.Name)
                )
        for field in ("body", "orelse", "finalbody", "handlers"):
            pending.extend(getattr(statement, field, ()) or ())
    return names


class _Scope:
    """What one function (or the module body) binds, for container lookups."""

    def __init__(self, function, module_names: set[str]):
        self.module_names = module_names
        self.params: set[str] = set()
        self.locals: set[str] = set()
        self.globals: set[str] = set()
        #: local name -> the ``id(...)`` call it was assigned from.
        self.id_names: dict[str, ast.Call] = {}
        if function is None:
            return
        arguments = function.args
        for argument in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
            arguments.vararg,
            arguments.kwarg,
        ):
            if argument is not None:
                self.params.add(argument.arg)
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                self.globals.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.locals.add(node.id)
            elif isinstance(node, ast.Assign) and _is_id_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.id_names[target.id] = node.value

    def id_calls(self, key: ast.AST) -> list[ast.Call]:
        """The ``id(...)`` calls ``key`` is built from (empty when none)."""
        if _is_id_call(key):
            return [key]
        if isinstance(key, ast.Name) and key.id in self.id_names:
            return [self.id_names[key.id]]
        if isinstance(key, ast.Tuple):
            return [call for element in key.elts for call in self.id_calls(element)]
        return []

    def outlives_call(self, container: ast.AST) -> bool:
        if isinstance(container, ast.Attribute):
            return True
        if not isinstance(container, ast.Name):
            return False
        name = container.id
        if name in self.params or name in self.globals:
            return True
        return name not in self.locals and name in self.module_names


def _keyed_uses(node: ast.AST):
    """``(container, key)`` pairs for the keyed container uses at ``node``."""
    if isinstance(node, ast.Subscript):
        yield node.value, node.slice
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in KEYED_METHODS
    ):
        for argument in node.args:
            yield node.func.value, argument
    elif isinstance(node, ast.Compare):
        left = node.left
        for operator, right in zip(node.ops, node.comparators):
            if isinstance(operator, (ast.In, ast.NotIn)):
                yield right, left
            left = right


class IdKeyChecker(Checker):
    rule_id = "id-key"
    description = "`id(...)` must not key a container that outlives the call"
    doc_section = "docs/architecture.md#6-the-serving-layer"

    def run(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for source in project.files.values():
            findings.extend(self._check(source))
        return findings

    def _check(self, source: SourceFile) -> list[Finding]:
        module_names = _module_names(source.tree)
        scopes: dict = {}
        flagged: dict[ast.Call, str] = {}
        for node in ast.walk(source.tree):
            for container, key in _keyed_uses(node):
                function = source.enclosing_function(node)
                scope = scopes.get(function)
                if scope is None:
                    scope = scopes[function] = _Scope(function, module_names)
                calls = scope.id_calls(key)
                if calls and scope.outlives_call(container):
                    for call in calls:
                        flagged.setdefault(call, unparse(container))
        return [
            self.finding(
                source,
                call,
                f"`{unparse(call)}` keys `{container}`, which outlives the call; "
                "CPython reuses the ids of freed objects, so key on content "
                f"(repro.core.fingerprint) instead (see {self.doc_section})",
            )
            for call, container in flagged.items()
        ]
