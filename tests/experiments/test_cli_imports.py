"""What a ``repro`` process imports before and while it runs a command.

Every ``repro`` process imports :mod:`repro.cli` and builds the parser,
so anything loaded there is paid by each ``repro run`` and by every
``repro worker`` process.  The linter, the observability endpoint's HTTP
stack and :mod:`multiprocessing` load only in the commands that use them.
A serial run also leaves out the service stack, the thread-pool executor,
the paper's reported numbers and the grid helpers, while ``serve`` loads
the service stack before the data.  No command loads SciPy: the runtime
needs only NumPy.  A fresh interpreter is the only clean view of
``sys.modules``.
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

#: Modules that neither the parser nor a seeded serial run loads.
OFF_THE_RUN_PATH = (
    "repro.federated.service",
    "repro.federated.wire",
    "concurrent.futures",
    "repro.analysis.paper",
    "repro.experiments.sweep",
)

PROBE = f"""
import json, sys
import repro.cli
repro.cli.build_parser()
loaded = [name for name in {DEFERRED + OFF_THE_RUN_PATH!r} if name in sys.modules]
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
    """The seeded reference run in a fresh interpreter, after ``prelude``.

    The last line of its stderr lists, as JSON, which of SciPy and the
    :data:`OFF_THE_RUN_PATH` modules were loaded when the run returned.
    """
    watched = ("scipy", *OFF_THE_RUN_PATH)
    probe = (
        f"import json, sys\n{prelude}\nimport repro.cli\n"
        f"code = repro.cli.main({REFERENCE_ARGV!r})\n"
        f"print(json.dumps([name for name in {watched!r} if name in sys.modules]),"
        " file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def loaded_by(result: subprocess.CompletedProcess) -> list[str]:
    """The watched modules a :func:`run_reference` process had loaded."""
    return json.loads(result.stderr.strip().splitlines()[-1])


def test_a_seeded_run_never_imports_scipy():
    assert "scipy" not in loaded_by(run_reference(""))


def test_a_seeded_serial_run_loads_only_what_it_runs():
    """No service stack, thread pool, paper table or grid helper."""
    assert loaded_by(run_reference("")) == []


def test_a_seeded_run_without_scipy_matches_the_reference():
    """A NumPy-only host prints the committed reference byte for byte."""
    result = run_reference("sys.modules['scipy'] = None  # any scipy import now fails")
    assert result.stdout == BASELINE.read_text()


SERVE_PROBE = """
import json, sys
import repro.cli
import repro.experiments.runner as runner


class Loading(Exception):
    pass


def load_dataset(*args, **kwargs):
    raise Loading("repro.federated.service" in sys.modules)


runner.load_dataset = load_dataset
try:
    repro.cli.main(["serve", "--port", "0"])
except Loading as loading:
    print(json.dumps({"service_loaded": loading.args[0]}))
"""


def test_serve_loads_the_service_stack_before_the_data():
    """The remote backend is built, and the service module compiled,
    before the dataset is loaded; the probe stops the run there, before
    any socket opens."""
    result = subprocess.run(
        [sys.executable, "-c", SERVE_PROBE],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert json.loads(result.stdout.strip().splitlines()[-1]) == {
        "service_loaded": True
    }


BACKEND_PROBE = """
import json, socket, sys

opened = []
original_init = socket.socket.__init__


def recording_init(self, *args, **kwargs):
    opened.append(repr(args))
    original_init(self, *args, **kwargs)


socket.socket.__init__ = recording_init
from repro.federated.backends import build_backend

try:
    build_backend("remote", bogus=1)
    error = None
except TypeError as raised:
    error = str(raised)
report = {"error": error, "opened": opened,
          "service": "repro.federated.service" in sys.modules}
threaded = build_backend("threaded", max_workers=2)
report["executor_when_built"] = "concurrent.futures" in sys.modules
assert list(threaded.map_ordered(abs, [-1, -2, -3])) == [1, 2, 3]
report["executor_when_mapped"] = "concurrent.futures" in sys.modules
threaded.shutdown()
print(json.dumps(report))
"""


def test_backends_load_their_machinery_only_when_used():
    """A bad remote option fails in the registry, before the service
    module loads or a socket opens; a thread pool's executor loads when
    the pool starts."""
    result = subprocess.run(
        [sys.executable, "-c", BACKEND_PROBE],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    report = json.loads(result.stdout)
    assert "backend 'remote' got unexpected keyword argument(s) ['bogus']" in report["error"]
    assert report["opened"] == []
    assert report["service"] is False
    assert report["executor_when_built"] is False
    assert report["executor_when_mapped"] is True


def test_lazily_exported_names_still_resolve():
    from repro.analysis import paper
    from repro.experiments import (
        accuracy_grid,
        reference_accuracy,
        reference_config,
        run_grid,
        series_from_grid,
    )
    from repro.federated import (
        CoordinatorServer,
        RemoteBackend,
        RemoteTaskError,
        WireError,
        run_worker,
    )
    from repro.federated.backends import BACKENDS
    from repro.privacy import RDPAccountant

    assert BACKENDS.get("remote").builder is RemoteBackend
    assert BACKENDS.get("service").builder is RemoteBackend
    assert RemoteBackend.__module__ == "repro.federated.backends"
    assert {
        value.__module__
        for value in (CoordinatorServer, RemoteTaskError, run_worker)
    } == {"repro.federated.service"}
    assert WireError.__module__ == "repro.federated.wire"
    assert {
        value.__module__
        for value in (reference_accuracy, reference_config)
    } == {"repro.experiments.reference"}
    assert {
        value.__module__
        for value in (run_grid, accuracy_grid, series_from_grid)
    } == {"repro.experiments.sweep"}
    assert paper.__name__ == "repro.analysis.paper"
    assert RDPAccountant.__module__ == "repro.privacy.accountant"
