"""Output formatters: human, JSON, GitHub workflow annotations.

Every formatter consumes the same partitioned view -- new findings (the
ones failing the gate), baselined findings, suppressed count -- so the
three formats always agree on the verdict.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.tools.lint.framework import Finding

__all__ = ["FORMATS", "render"]


def _human(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    suppressed: int,
    files_checked: int,
    show_baselined: bool,
) -> str:
    lines = [
        f"{finding.path}:{finding.line}:{finding.column}: "
        f"{finding.code} [{finding.symbol}] {finding.message}"
        for finding in new
    ]
    if show_baselined:
        lines += [
            f"{finding.path}:{finding.line}:{finding.column}: "
            f"{finding.code} [{finding.symbol}] {finding.message} (baselined)"
            for finding in baselined
        ]
    summary = (
        f"{files_checked} file(s) checked: {len(new)} new finding(s), "
        f"{len(baselined)} baselined, {suppressed} suppressed"
    )
    if lines:
        return "\n".join([*lines, "", summary])
    return summary


def _json(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    suppressed: int,
    files_checked: int,
    show_baselined: bool,
) -> str:
    payload = {
        "files_checked": files_checked,
        "new": [finding.as_dict() for finding in new],
        "baselined": [finding.as_dict() for finding in baselined],
        "suppressed": suppressed,
    }
    return json.dumps(payload, indent=2)


def _github(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    suppressed: int,
    files_checked: int,
    show_baselined: bool,
) -> str:
    """GitHub Actions workflow commands: new=error, baselined=notice."""

    def command(level: str, finding: Finding, suffix: str = "") -> str:
        # Annotation messages must escape %, CR and LF per the protocol.
        message = (
            (finding.message + suffix)
            .replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
        )
        return (
            f"::{level} file={finding.path},line={finding.line},"
            f"col={finding.column},title={finding.code} {finding.symbol}"
            f"::{message}"
        )

    lines = [command("error", finding) for finding in new]
    if show_baselined:
        lines += [command("notice", finding, " (baselined)") for finding in baselined]
    lines.append(
        f"::notice title=repro lint::{files_checked} file(s) checked, "
        f"{len(new)} new finding(s), {len(baselined)} baselined, "
        f"{suppressed} suppressed"
    )
    return "\n".join(lines)


FORMATS = {"human": _human, "json": _json, "github": _github}


def render(
    format_name: str,
    *,
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    suppressed: int,
    files_checked: int,
    show_baselined: bool = False,
) -> str:
    return FORMATS[format_name](new, baselined, suppressed, files_checked, show_baselined)
