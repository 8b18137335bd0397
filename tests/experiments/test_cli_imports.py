"""What a ``repro`` process imports before and while it runs a command.

Every ``repro`` process imports :mod:`repro.cli` and builds the parser,
so anything loaded there is paid by each ``repro run`` and by every
``repro worker`` process.  The linter, the observability endpoint's HTTP
stack and :mod:`multiprocessing` load only in the commands that use them,
and no command loads SciPy: the runtime needs only NumPy.  A fresh
interpreter is the only clean view of ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
BASELINE = REPO / "benchmarks" / "baselines" / "run_seeded_reference.txt"
REFERENCE_ARGV = [
    "run", "--attack", "lmp", "--defense", "two_stage", "--seed", "1", "--epochs", "2",
]

#: Modules that building the parser must not load.
DEFERRED = (
    "repro.tools.lint.framework",
    "repro.federated.observability",
    "http.server",
    "urllib.request",
    "multiprocessing",
)

PROBE = f"""
import json, sys
import repro.cli
repro.cli.build_parser()
loaded = [name for name in {DEFERRED!r} if name in sys.modules]
from repro.federated import TraceRecorder
from repro.tools.lint import LINT_RULES
print(json.dumps({{
    "loaded": loaded,
    "trace_recorder": TraceRecorder.__module__,
    "rules": sorted(row["name"] for row in LINT_RULES.describe()),
}}))
"""


def test_building_the_parser_defers_unused_subsystems():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    report = json.loads(result.stdout)
    assert report["loaded"] == []
    # The lazy re-exports still resolve, and the built-in rules register.
    assert report["trace_recorder"] == "repro.federated.observability"
    assert {"REP001", "REP007"} <= set(report["rules"])


def run_reference(prelude: str) -> subprocess.CompletedProcess:
    """The seeded reference run in a fresh interpreter, after ``prelude``."""
    probe = (
        f"import sys\n{prelude}\nimport repro.cli\n"
        f"code = repro.cli.main({REFERENCE_ARGV!r})\n"
        "print('scipy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_a_seeded_run_never_imports_scipy():
    result = run_reference("")
    assert result.stderr.strip().splitlines()[-1] == "False"


def test_a_seeded_run_without_scipy_matches_the_reference():
    """A NumPy-only host prints the committed reference byte for byte."""
    result = run_reference("sys.modules['scipy'] = None  # any scipy import now fails")
    assert result.stdout == BASELINE.read_text()
