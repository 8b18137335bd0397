"""The ``repro lint`` command (also ``python -m repro.tools.lint``).

Exit codes: ``0`` clean (every finding suppressed), ``1`` findings,
``2`` usage or I/O error.  The main ``repro`` CLI mounts
:func:`add_lint_arguments` on its own subparser, so flags behave
identically through both entry points.  The linter itself loads only
when a command runs: building either parser imports no rule.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.tools.lint.output import FORMATS, render
from repro.registry import UnknownComponentError

__all__ = ["add_lint_arguments", "build_parser", "main", "run_lint_command"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Mount the lint flags on ``parser`` (shared with the repro CLI)."""
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to lint (default: src/ if it exists, "
             "else the current directory)",
    )
    parser.add_argument(
        "--format", choices=sorted(FORMATS), default="human",
        help="output format: human-readable lines, a JSON report, or "
             "GitHub Actions annotations",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes/slugs to run (default: all)",
    )
    parser.add_argument(
        "--skip", default=None, metavar="CODES",
        help="comma-separated rule codes/slugs to skip",
    )
    parser.add_argument(
        "--unscoped", action="store_true",
        help="ignore the rules' path scoping and run every rule on every "
             "file (for linting third-party scenario packs whose layout "
             "differs from this repo)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant linter: determinism, concurrency "
                    "safety, dtype discipline, registry hygiene.",
    )
    add_lint_arguments(parser)
    return parser


def _default_paths() -> list[str]:
    return ["src"] if Path("src").is_dir() else ["."]


def _parse_codes(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [code.strip() for code in text.split(",") if code.strip()]


def _list_rules() -> int:
    from repro.tools.lint import LINT_RULES

    for row in LINT_RULES.describe():
        aliases = f" ({', '.join(row['aliases'])})" if row["aliases"] else ""
        print(f"{row['name']}{aliases}: {row['summary']}")
    return 0


def run_lint_command(arguments: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if arguments.list_rules:
        return _list_rules()
    from repro.tools.lint import lint_paths

    paths = arguments.paths or _default_paths()
    try:
        report = lint_paths(
            paths,
            select=_parse_codes(arguments.select),
            skip=_parse_codes(arguments.skip),
            unscoped=arguments.unscoped,
        )
    except UnknownComponentError as error:
        print(f"repro lint: {error.args[0]}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    print(render(
        arguments.format,
        findings=report.findings,
        suppressed=len(report.suppressed),
        files_checked=report.files_checked,
    ))
    return 1 if report.findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    return run_lint_command(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
