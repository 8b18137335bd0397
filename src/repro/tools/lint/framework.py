"""Core of the invariant linter: findings, rules, suppressions, runner.

The linter exists because this repository's load-bearing guarantees --
bitwise-reproducible runs, race-free backend-executed shard code,
float64 reference-tier numerics -- are *conventions*, not types.  The
test suite can only spot-check them after the fact (PR 7's 1-in-4
gradient-corruption race survived 1200 tests until a smoke run hit it);
a static pass over the AST catches the violating *pattern* the moment it
is written.

Architecture
------------
Each check is a :class:`LintRule` subclass registered on
:data:`LINT_RULES` -- the same generic :class:`repro.registry.Registry`
behind the attack/defense/engine axes -- so third-party scenario packs
add rules exactly the way they add components::

    from repro.tools.lint import LINT_RULES, LintRule

    @LINT_RULES.register("PACK001", summary="no eval() in pack code")
    class NoEval(LintRule):
        code = "PACK001"
        name = "no-eval"

        def check(self, module):
            for node in module.walk(ast.Call):
                if isinstance(node.func, ast.Name) and node.func.id == "eval":
                    yield self.finding(module, node, "eval() call")

A rule declares ``targets`` -- path fragments such as ``repro/core/`` --
and is only run on matching files; rules with no targets run everywhere
(``--unscoped`` promotes every rule to global, for linting third-party
trees whose layout differs).

A finding is suppressed on its line with a trailing directive::

    token = uuid.uuid4().hex  # repro-lint: disable=REP001 -- cache key only

Every finding without one fails the gate.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.registry import Registry

__all__ = [
    "LINT_RULES",
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleSource",
    "dotted_name",
    "import_aliases",
    "iter_python_files",
    "lint_paths",
    "lint_text",
    "resolve_call",
    "resolve_rules",
]

#: Global registry of lint rules; ``repro lint`` runs every entry whose
#: ``targets`` match the file under inspection.
LINT_RULES = Registry("lint rule")

#: ``# repro-lint: disable=REP001,REP003`` (or ``disable=all``); anything
#: after the code list (e.g. ``-- justification``) is free-form.
_SUPPRESSION = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?|all)\s*(?:--|$)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    code: str
    symbol: str
    message: str

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "symbol": self.symbol,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }


@dataclass
class ModuleSource:
    """One parsed file handed to every applicable rule."""

    path: str  # posix display path, also used in findings
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @classmethod
    def parse(cls, text: str, path: str) -> ModuleSource:
        """Parse ``text``; propagates ``SyntaxError`` to the caller."""
        tree = ast.parse(text, filename=path)
        return cls(path=path, text=text, tree=tree, lines=text.splitlines())

    def walk(self, *types: type) -> Iterator[ast.AST]:
        """Every node in the tree, optionally filtered by node type."""
        for node in ast.walk(self.tree):
            if not types or isinstance(node, types):
                yield node

    def suppressed_codes(self, line: int) -> frozenset[str]:
        """Codes disabled on physical ``line`` (1-based); ``{"all"}`` wildcard."""
        if not 1 <= line <= len(self.lines):
            return frozenset()
        match = _SUPPRESSION.search(self.lines[line - 1])
        if match is None:
            return frozenset()
        spec = match.group(1).strip()
        if spec == "all":
            return frozenset({"all"})
        return frozenset(code.strip() for code in spec.split(",") if code.strip())

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.suppressed_codes(finding.line)
        return "all" in codes or finding.code in codes


class LintRule:
    """Base class of one registered invariant check.

    Subclasses set :attr:`code` (``REPnnn``), :attr:`name` (a kebab-case
    slug used in human output), :attr:`targets`, and implement
    :meth:`check` yielding :class:`Finding` objects (most conveniently
    through the :meth:`finding` helper).
    """

    #: Stable identifier (``REP001``); what suppressions key on.
    code: str = ""
    #: Human slug (``naked-nondeterminism``).
    name: str = ""
    #: Path fragments this rule is scoped to (``repro/core/``); empty = all
    #: files.  Matching is plain substring containment on the posix path,
    #: so both ``src/repro/core/x.py`` and an installed ``repro/core/x.py``
    #: match ``repro/core/``.
    targets: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if not self.targets:
            return True
        posix = Path(path).as_posix()
        return any(target in posix for target in self.targets)

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleSource,
        node: ast.AST,
        message: str,
        symbol: str | None = None,
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            symbol=symbol or self.name,
            message=message,
        )


# --------------------------------------------------------------------- #
# shared AST helpers (used by several rules)
# --------------------------------------------------------------------- #
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted module/object for every import.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random
    import default_rng as rng`` maps ``rng -> numpy.random.default_rng``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    aliases[item.asname] = item.name
                else:
                    root = item.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of the called object, imports resolved."""
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    head = aliases.get(head, head)
    return f"{head}.{rest}" if rest else head


# --------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------- #
def resolve_rules(
    select: Sequence[str] | None = None, skip: Sequence[str] | None = None
) -> list[LintRule]:
    """Instantiate the registered rules, honouring ``--select``/``--skip``.

    Codes and slugs are both accepted (slugs are registry aliases);
    unknown names raise the registry's ``UnknownComponentError``.
    """
    names = list(select) if select else LINT_RULES.names()
    skipped = {LINT_RULES.get(name).name for name in (skip or ())}
    rules = []
    for name in names:
        entry = LINT_RULES.get(name)
        if entry.name in skipped:
            continue
        rules.append(LINT_RULES.build(entry.name))
    return sorted(rules, key=lambda rule: rule.code)


def _check_module(
    module: ModuleSource, rules: Sequence[LintRule], unscoped: bool
) -> tuple[list[Finding], list[Finding]]:
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for rule in rules:
        if not unscoped and not rule.applies_to(module.path):
            continue
        for finding in rule.check(module):
            (suppressed if module.is_suppressed(finding) else findings).append(finding)
    return findings, suppressed


def lint_text(
    text: str,
    path: str = "<string>",
    *,
    select: Sequence[str] | None = None,
    skip: Sequence[str] | None = None,
    unscoped: bool = False,
) -> list[Finding]:
    """Lint one in-memory source blob (rule fixtures, scenario packs)."""
    module = ModuleSource.parse(text, path)
    findings, _ = _check_module(module, resolve_rules(select, skip), unscoped)
    return sorted(findings)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """``.py`` files under each path, sorted for stable output."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            yield path
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Sequence[str] | None = None,
    skip: Sequence[str] | None = None,
    unscoped: bool = False,
) -> LintReport:
    """Run every applicable rule over the trees/files in ``paths``.

    Files that fail to parse surface as ``REP000 syntax-error`` findings
    instead of aborting the run: a broken file must fail the lint gate,
    not crash it.
    """
    rules = resolve_rules(select, skip)
    report = LintReport()
    for file_path in iter_python_files(paths):
        display = file_path.as_posix()
        report.files_checked += 1
        try:
            text = file_path.read_text(encoding="utf-8")
            module = ModuleSource.parse(text, display)
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            line = getattr(error, "lineno", None) or 1
            report.findings.append(Finding(
                path=display,
                line=line,
                column=1,
                code="REP000",
                symbol="syntax-error",
                message=f"file could not be parsed: {error}",
            ))
            continue
        findings, suppressed = _check_module(module, rules, unscoped)
        report.findings.extend(findings)
        report.suppressed.extend(suppressed)
    report.findings.sort()
    report.suppressed.sort()
    return report
