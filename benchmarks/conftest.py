"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on the
scaled-down substrate that README.md describes ("What this reproduction
substitutes").  The measured values are

- printed (run pytest with ``-s`` to see them live),
- written to ``benchmarks/results/<name>.txt`` so they survive output
  capture, and
- checked against the *shape* of the paper's result (who wins, direction of
  trends), never the absolute numbers.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmarks persist their printed tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Return a callable that prints a table and writes it to the results dir."""

    def _record(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record
