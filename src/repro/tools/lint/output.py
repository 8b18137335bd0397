"""Output formatters: human, JSON, GitHub workflow annotations.

Every formatter renders the same view -- the findings (each one fails
the gate), the suppressed count and the number of files checked -- so
the three formats always agree on the verdict.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.tools.lint.framework import Finding

__all__ = ["FORMATS", "render"]


def _human(findings: Sequence[Finding], suppressed: int, files_checked: int) -> str:
    lines = [
        f"{finding.path}:{finding.line}:{finding.column}: "
        f"{finding.code} [{finding.symbol}] {finding.message}"
        for finding in findings
    ]
    summary = (
        f"{files_checked} file(s) checked: {len(findings)} finding(s), "
        f"{suppressed} suppressed"
    )
    if lines:
        return "\n".join([*lines, "", summary])
    return summary


def _json(findings: Sequence[Finding], suppressed: int, files_checked: int) -> str:
    payload = {
        "files_checked": files_checked,
        "findings": [finding.as_dict() for finding in findings],
        "suppressed": suppressed,
    }
    return json.dumps(payload, indent=2)


def _github(findings: Sequence[Finding], suppressed: int, files_checked: int) -> str:
    """GitHub Actions workflow commands: one error per finding."""

    def command(finding: Finding) -> str:
        # Annotation messages must escape %, CR and LF per the protocol.
        message = (
            finding.message
            .replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
        )
        return (
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.column},title={finding.code} {finding.symbol}"
            f"::{message}"
        )

    lines = [command(finding) for finding in findings]
    lines.append(
        f"::notice title=repro lint::{files_checked} file(s) checked, "
        f"{len(findings)} finding(s), {suppressed} suppressed"
    )
    return "\n".join(lines)


FORMATS = {"human": _human, "json": _json, "github": _github}


def render(
    format_name: str,
    *,
    findings: Sequence[Finding],
    suppressed: int,
    files_checked: int,
) -> str:
    return FORMATS[format_name](findings, suppressed, files_checked)
