"""Committed-baseline support: pre-existing findings don't block CI.

A baseline file (``tools/lint_baseline.json`` by convention) records the
findings present when the gate was introduced.  ``repro lint`` then
partitions each run's findings into *baselined* (an entry in the file
covers them) and *new* (fail the gate).  Matching uses
:meth:`Finding.fingerprint` -- ``(code, path, symbol, message)``,
deliberately without line numbers -- and is *count-aware*: a file
baselined with two findings of one fingerprint fails when a third
appears.

The file is regenerated with ``repro lint --write-baseline``; shrinking
it over time (fixing findings, or replacing entries with inline
suppressions that carry a justification) is the intended workflow.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.tools.lint.framework import Finding

__all__ = ["BASELINE_VERSION", "load_baseline", "partition", "write_baseline"]

BASELINE_VERSION = 1

#: Where ``repro lint`` looks when ``--baseline`` is not given.
DEFAULT_BASELINE = Path("tools/lint_baseline.json")


def load_baseline(path: str | Path) -> Counter:
    """Fingerprint multiset of the baselined findings in ``path``."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or raw.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"{path}: not a repro-lint baseline "
            f"(expected a version-{BASELINE_VERSION} object)"
        )
    fingerprints: Counter = Counter()
    for entry in raw.get("findings", []):
        fingerprints[(
            entry["code"],
            entry["path"],
            entry["symbol"],
            entry["message"],
        )] += 1
    return fingerprints


def write_baseline(path: str | Path, findings: list[Finding]) -> None:
    """Record ``findings`` (sorted, line numbers kept for humans only)."""
    payload = {
        "version": BASELINE_VERSION,
        "tool": "repro lint",
        "findings": [finding.as_dict() for finding in sorted(findings)],
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def partition(
    findings: list[Finding], baseline: Counter
) -> tuple[list[Finding], list[Finding]]:
    """Split ``findings`` into (new, baselined).

    Occurrences beyond a fingerprint's baselined count are new; within
    the count, the earliest-by-line occurrences are treated as the
    baselined ones (stable because ``findings`` arrive sorted).
    """
    remaining = Counter(baseline)
    new: list[Finding] = []
    known: list[Finding] = []
    for finding in findings:
        fingerprint = finding.fingerprint()
        if remaining[fingerprint] > 0:
            remaining[fingerprint] -= 1
            known.append(finding)
        else:
            new.append(finding)
    return new, known
