"""``python -m repro.tools.docs`` -- generated reference documentation.

The scenario axes (datasets, attacks, defenses, models, engines,
backends, faults, samplers) are defined by the component registries, so
their reference page is *rendered from* the registries instead of being
maintained by hand::

    python -m repro.tools.docs generate    # (re)write docs/reference/axes.md
    python -m repro.tools.docs check       # exit 1 when the page is stale
    python -m repro.tools.docs linkcheck   # verify markdown links resolve

``check`` is the CI sync gate (like the lint gate): any
change to a registry entry -- a new component, an alias, an edited
summary, different ``config_defaults`` wiring -- fails CI until the page
is regenerated and committed.  ``linkcheck`` walks ``docs/`` and the
README with a stdlib-only parser and verifies every relative link and
intra-repo anchor resolves.

Exit codes: ``0`` success, ``1`` drift or broken links, ``2`` usage or
I/O error.
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

__all__ = [
    "DEFAULT_OUTPUT",
    "check_links",
    "collect_links",
    "main",
    "render_axes",
    "slugify_anchor",
]

#: Where the generated reference lives, relative to the repo root.
DEFAULT_OUTPUT = Path("docs") / "reference" / "axes.md"

GENERATED_MARKER = (
    "<!-- Generated by `python -m repro.tools.docs generate`. "
    "Do not edit by hand: CI fails when this page drifts from the "
    "registries. -->"
)

#: Section headings per registry kind, in presentation order.
_SECTIONS = (
    ("dataset", "Datasets", "--dataset"),
    ("attack", "Attacks", "--attack"),
    ("defense", "Defenses", "--defense"),
    ("model", "Models", "--model"),
    ("engine", "Client engines", "--engine"),
    ("backend", "Execution backends", "--backend"),
    ("fault", "Fault models", "--faults"),
    ("sampler", "Cohort samplers", "--sampling"),
)


def _registries():
    """The eight scenario-axis registries, fully populated.

    Every built-in component registers in the module that defines it,
    and importing a registry loads those modules (the ``remote`` backend
    is defined beside its registry in :mod:`repro.federated.backends`),
    so importing the registries is enough.
    """
    from repro.byzantine.registry import ATTACKS
    from repro.data.registry import DATASETS
    from repro.defenses.registry import DEFENSES
    from repro.federated.backends import BACKENDS
    from repro.federated.engines import ENGINES
    from repro.federated.faults import FAULTS
    from repro.federated.sampling import SAMPLERS
    from repro.nn.models import MODELS

    return (DATASETS, ATTACKS, DEFENSES, MODELS, ENGINES, BACKENDS,
            FAULTS, SAMPLERS)


def _escape_cell(text: str) -> str:
    """Make a value safe inside a markdown table cell."""
    return str(text).replace("|", "\\|").replace("\n", " ").strip()


def _markdown_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_escape_cell(cell) for cell in row) + " |")
    return "\n".join(lines)


def _describe_default(source: object) -> str:
    """Render one ``config_defaults`` source deterministically.

    A string names the :class:`~repro.experiments.configs.ExperimentConfig`
    field that feeds the keyword; a callable computes the value from the
    whole config.  ``repr`` is avoided for callables -- it embeds memory
    addresses, which would make the generated page non-reproducible.
    """
    if isinstance(source, str):
        return f"from config field `{source}`"
    name = getattr(source, "__name__", "callable").lstrip("_")
    return f"computed from the config (`{name}`)"


def _wiring_lines(rows: Sequence[Mapping]) -> list[str]:
    """The ``config_defaults`` wiring bullets for one registry's rows."""
    lines = []
    for row in rows:
        defaults = row["metadata"].get("config_defaults")
        if not defaults:
            continue
        wired = ", ".join(
            f"`{keyword}` {_describe_default(defaults[keyword])}"
            for keyword in sorted(defaults)
        )
        lines.append(f"- `{row['name']}`: {wired}")
    return lines


def render_axes() -> str:
    """The full ``docs/reference/axes.md`` page as a string.

    Byte-deterministic for a given registry population: rows come from
    :meth:`~repro.registry.Registry.describe` (sorted by name), mappings
    are emitted in sorted key order, and callables render by name.
    """
    registries = {registry.kind: registry for registry in _registries()}
    parts = [
        GENERATED_MARKER,
        "",
        "# Scenario axes",
        "",
        "Every experiment is a point in the grid spanned by these eight "
        "component registries.  Any registered name (or alias) is valid "
        "for the matching CLI flag, `ExperimentConfig` field, sweep axis "
        "or preset argument; third-party components registered via "
        "`Registry.register` appear here after regenerating the page.",
        "",
    ]
    for kind, title, flag in _SECTIONS:
        registry = registries[kind]
        rows = registry.describe()
        parts += [f"## {title}", "",
                  f"CLI flag `{flag}`; {len(rows)} registered.", ""]
        table_rows = []
        for row in rows:
            extras = []
            default_model = row["metadata"].get("default_model")
            if default_model:
                extras.append(f"default model `{default_model}`")
            table_rows.append([
                f"`{row['name']}`",
                ", ".join(f"`{alias}`" for alias in row["aliases"]) or "--",
                row["summary"] + (f" ({'; '.join(extras)})" if extras else ""),
            ])
        parts += [_markdown_table(["name", "aliases", "summary"], table_rows), ""]
        wiring = _wiring_lines(rows)
        if wiring:
            parts += [
                "Config wiring (constructor keywords seeded from the "
                "experiment config unless overridden):",
                "",
                *wiring,
                "",
            ]
        if kind == "attack":
            parts += [
                "Every attack also has an adaptive variant, "
                "`adaptive_<name>`, that stays dormant until the final "
                "fraction of training (`--ttbb`).",
                "",
            ]
    return "\n".join(parts).rstrip() + "\n"


# ---------------------------------------------------------------------- #
# the stdlib markdown link checker
# ---------------------------------------------------------------------- #
_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_EXTERNAL = ("http://", "https://", "mailto:")


def slugify_anchor(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    return {
        slugify_anchor(match.group(1))
        for match in _HEADING.finditer(path.read_text(encoding="utf-8"))
    }


def collect_links(path: Path) -> list[str]:
    """Every non-image markdown link target in ``path``."""
    return _LINK.findall(path.read_text(encoding="utf-8"))


def check_links(files: Sequence[Path]) -> list[str]:
    """Problems (as ``file: message`` strings) across markdown ``files``.

    Relative links must point at an existing file or directory; anchors
    (own-page or cross-page) must match a heading in the target.
    External ``http(s)``/``mailto`` links are not fetched -- CI runs
    offline -- only recorded as out of scope.
    """
    problems = []
    for path in files:
        for target in collect_links(path):
            if target.startswith(_EXTERNAL):
                continue
            base, _, anchor = target.partition("#")
            destination = path if not base else (path.parent / base).resolve()
            if not destination.exists():
                problems.append(f"{path}: broken link target {target!r}")
                continue
            if anchor and destination.suffix == ".md":
                if slugify_anchor(anchor) not in _anchors(destination):
                    problems.append(
                        f"{path}: anchor #{anchor} not found in "
                        f"{destination.name}"
                    )
    return problems


def _default_link_roots(root: Path) -> list[Path]:
    files = sorted((root / "docs").rglob("*.md")) if (root / "docs").is_dir() else []
    readme = root / "README.md"
    if readme.exists():
        files.insert(0, readme)
    return files


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.docs",
        description="generate and verify the registry-driven reference docs",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("generate", "write the scenario-axes reference page"),
        ("check", "exit 1 when the committed page is stale"),
    ):
        sub = commands.add_parser(name, help=summary)
        sub.add_argument(
            "--output", default=str(DEFAULT_OUTPUT), metavar="FILE.md",
            help=f"reference page location (default: {DEFAULT_OUTPUT})",
        )
    link = commands.add_parser(
        "linkcheck", help="verify relative links and anchors in markdown files"
    )
    link.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="markdown files or directories (default: README.md and docs/)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    if arguments.command in ("generate", "check"):
        output = Path(arguments.output)
        rendered = render_axes()
        if arguments.command == "generate":
            output.parent.mkdir(parents=True, exist_ok=True)
            output.write_text(rendered, encoding="utf-8")
            print(f"wrote {output}")
            return 0
        committed = output.read_text(encoding="utf-8") if output.exists() else ""
        if committed == rendered:
            print(f"{output} is in sync with the registries")
            return 0
        diff = difflib.unified_diff(
            committed.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            fromfile=f"{output} (committed)", tofile=f"{output} (regenerated)",
        )
        sys.stdout.writelines(diff)
        print(f"\n{output} is stale: run `python -m repro.tools.docs generate`")
        return 1
    files = []
    for raw in arguments.paths or []:
        path = Path(raw)
        files += sorted(path.rglob("*.md")) if path.is_dir() else [path]
    if not arguments.paths:
        files = _default_link_roots(Path.cwd())
    missing = [path for path in files if not path.exists()]
    if missing:
        print(f"no such file: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    problems = check_links(files)
    for problem in problems:
        print(problem)
    print(f"checked {len(files)} file(s): "
          f"{len(problems) or 'no'} broken link(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
