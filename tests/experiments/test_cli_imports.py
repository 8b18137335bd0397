"""What a ``repro`` process imports before it runs a command.

Every ``repro`` process imports :mod:`repro.cli` and builds the parser,
so anything loaded there is paid by each ``repro run`` and by every
``repro worker`` process.  The linter, the observability endpoint's HTTP
stack and :mod:`multiprocessing` load only in the commands that use them.
A fresh interpreter is the only clean view of ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

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
