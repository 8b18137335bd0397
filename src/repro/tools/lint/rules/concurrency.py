"""REP002 -- shared mutable state in backend-executed code.

The files named in :attr:`SharedMutableState.targets` run under every
execution backend: the same functions are called concurrently from
thread pools, process-pool workers and service-mode worker threads.  A
module-level or class-level mutable container there is shared by every
thread of the process -- exactly the bug PR 7 shipped, where a plain
dict-shared model cache let two threads finalising shards of the same
pool race on one model's parameters, silently corrupting gradients in
roughly one run in four.

The fix idiom this rule enforces: per-thread state lives behind
``threading.local()`` (the cache is then keyed per thread, as
``_THREAD_CACHE`` in ``federated/worker.py`` is today: it holds only
scratch generators and networks built from a remote payload's layer
spec, since engines keep nothing between calls) or inside a per-shard
workspace object owned by exactly one task.  Immutable
module-level tables (tuples, frozensets, ``MappingProxyType(...)``)
pass; a deliberately-shared lock-protected structure can carry a
per-line suppression naming the lock.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.tools.lint.framework import (
    LINT_RULES,
    Finding,
    LintRule,
    ModuleSource,
    import_aliases,
    resolve_call,
)

#: Constructors whose result is a shared mutable container.
_MUTABLE_CONSTRUCTORS = frozenset({
    "dict",
    "list",
    "set",
    "bytearray",
    "collections.defaultdict",
    "collections.OrderedDict",
    "collections.deque",
    "collections.Counter",
    "collections.ChainMap",
})

_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _is_mutable_container(value: ast.AST, aliases: dict[str, str]) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        called = resolve_call(value, aliases)
        return called in _MUTABLE_CONSTRUCTORS
    return False


def _assignment_targets(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _assignment_value(node: ast.stmt) -> ast.AST | None:
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return node.value
    return None


@LINT_RULES.register(
    "REP002",
    aliases=("shared-mutable-state",),
    summary="module/class-level mutable containers in backend-executed files",
)
class SharedMutableState(LintRule):
    code = "REP002"
    name = "shared-mutable-state"
    targets = (
        "repro/federated/worker.py",
        "repro/federated/engines.py",
        "repro/federated/backends.py",
        "repro/federated/service.py",
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        aliases = import_aliases(module.tree)
        yield from self._check_body(module, module.tree.body, scope="module", aliases=aliases)
        for node in module.walk(ast.ClassDef):
            yield from self._check_body(
                module, node.body, scope=f"class {node.name}", aliases=aliases
            )

    def _check_body(
        self,
        module: ModuleSource,
        body: list[ast.stmt],
        scope: str,
        aliases: dict[str, str],
    ) -> Iterable[Finding]:
        for statement in body:
            value = _assignment_value(statement)
            if value is None or not _is_mutable_container(value, aliases):
                continue
            names = _assignment_targets(statement) or ["<target>"]
            for name in names:
                if name.startswith("__") and name.endswith("__"):
                    # Dunder metadata (__all__, __slots__, ...) is written
                    # once at import time by convention, never mutated.
                    continue
                yield self.finding(
                    module, statement,
                    f"{scope}-level mutable container {name!r} is shared by "
                    "every thread the execution backends run; wrap it in "
                    "threading.local(), move it into a per-shard workspace, "
                    "or make it immutable (tuple/frozenset/MappingProxyType)",
                    symbol=(
                        "module-mutable-state"
                        if scope == "module"
                        else "class-mutable-state"
                    ),
                )
