"""End-to-end benchmark of ``repro``: five seeded workloads, fresh processes.

Every repetition ("rep") is a fresh ``repro`` process started through the
bench-side harness ``child.py``, one at a time: a closed loop with one
client, where the next rep starts when the previous one has exited.
End-to-end metrics come from untraced reps; traced reps wrap the layers'
public functions from outside the program and give the per-layer split.
Each rep is checked against its committed fingerprint
(``expected/<workload>-seed<k>.json``).  Seeds without one are reported
as ``unchecked``; their reps must still agree with each other.

Metric names, units, directions and bounds, and the workloads' reasons,
live in ``BENCHMARK.json`` at the repository root; this file holds only
how each workload runs and how each metric is measured.

Usage (from the repository root)::

    # one workload for a fixed time; the last stdout line is one JSON object
    python3 benchmarks/e2e/bench.py --workload reference --seed 1 --seconds 22 --trace 0

    # every workload, reps interleaved round-robin, then one traced pass each
    python3 benchmarks/e2e/bench.py run --seed 1 --out A.json

    # compare two result files against the bounds in BENCHMARK.json
    python3 benchmarks/e2e/bench.py compare A.json B.json

    # append a result set to trajectory.json
    python3 benchmarks/e2e/bench.py record --label baseline A.json B.json

    # (re)write the committed fingerprints for seeds 1-3
    python3 benchmarks/e2e/bench.py expect

See ``README.md`` in this directory for the workloads, the metrics and
why the children run with single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from child import REPORT_ENV, TRACE_ENV, WAIT_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
#: Scratch of running reps (child reports, stdout captures, temp spills);
#: each invocation removes its own directory in it when it ends.
BUILD_DIR = HERE / ".bench_build"
EXPECTED_DIR = HERE / "expected"
EXPECTED_SEEDS = (1, 2, 3)
TRAJECTORY = HERE / "trajectory.json"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_STDOUT = ROOT / "benchmarks" / "baselines" / "run_seeded_reference.txt"

#: Every child runs single-threaded BLAS, so a rep's thread count is the
#: one its flags ask for (``--jobs 2`` would otherwise oversubscribe a
#: 2-core host); outputs are identical either way.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: A rep still running after this long is killed and counted as failed.
REP_TIMEOUT_S = 40.0
#: Single-workload mode starts no rep after this much time, so that even
#: a stalled host ends the run well within three minutes.
HARD_CAP_S = 120.0
#: Stdout lines that differ between identical runs (the picked port).
VOLATILE_LINES = (re.compile(rb"^coordinator listening on "),)
#: Worker processes of the ``remote`` workload (at most ``nproc`` = 2).
REMOTE_WORKERS = 2


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
def _paper_train(seed: int) -> list[str]:
    return ["run", "--paper-scale", "--attack", "alittle", "--byzantine", "0.6",
            "--seed", str(seed)]


def _chaos(seed: int, backend: str = "threaded") -> list[str]:
    parallel = ["--jobs", "2"] if backend != "serial" else []
    return _paper_train(seed) + ["--faults", "chaos", "--min-quorum", "0.25",
                                 "--shard-size", "4", "--backend", backend, *parallel]


@dataclass(frozen=True)
class Workload:
    """One seeded input set (its reason to exist is in BENCHMARK.json).

    ``command`` maps the workload seed to the ``repro`` arguments; the
    ``remote`` workload has none, it runs a coordinator and two workers.
    ``reps`` is the repetition count per set of ``run``, as many as fit
    in 30 s; ``min_reps`` keeps at least 100 pooled rounds so that p90
    has ten samples beyond it in single-workload mode too.
    """

    name: str
    reps: int
    min_reps: int
    command: Callable[[int], list[str]] | None


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("reference", 20, 3,
             lambda seed: ["run", "--attack", "lmp", "--defense", "two_stage",
                           "--seed", str(seed), "--epochs", "2"]),
    Workload("paper_train", 6, 2, _paper_train),
    Workload("population", 6, 2,
             lambda seed: ["run", "--dataset", "usps_like", "--population", "10000",
                           "--cohort", "64", "--byzantine", "0.2", "--attack", "label_flip",
                           "--epochs", "50", "--seed", str(seed)]),
    Workload("chaos", 6, 2, _chaos),
    Workload("remote", 5, 2, None),
)}


def remote_config_json(seed: int) -> str:
    """The ``remote`` workload's ExperimentConfig: paper_train at 4 epochs."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.experiments.presets import paper_preset
    finally:
        sys.path.pop(0)
    return paper_preset(
        byzantine_fraction=0.6, attack="alittle", seed=seed, epochs=4
    ).to_json()


# ---------------------------------------------------------------------- #
# metric definitions
# ---------------------------------------------------------------------- #
#: What a user of ``repro`` waits for, measured on untraced reps.
#: BENCHMARK.json lists under ``end_to_end``, with a bound, those that
#: repeat within one on a shared 2-vCPU host, and the others under
#: ``per_layer``: the round times drift with the host by more than 10%
#: between sets minutes apart (see README.md).
UNTRACED = ("wall_s", "setup_s", "rounds_per_s", "round_ms_p50", "round_ms_p90",
            "peak_rss_mib")


@dataclass(frozen=True)
class Layer:
    """How to read a per-layer metric of a traced rep.

    ``moves`` names the :data:`UNTRACED` metrics it should move and
    ``large_on`` the workloads where it is large.  ``deterministic``
    values must repeat exactly from run to run.
    """

    moves: tuple[str, ...]
    large_on: tuple[str, ...]
    deterministic: bool = False


_SETUP = ("setup_s", "wall_s")
_ROUNDS = ("rounds_per_s", "round_ms_p50")
_ALL = tuple(WORKLOADS)

#: Per-layer metrics of a traced rep (see the layer table in README.md).
LAYERS: dict[str, Layer] = {
    "cli.import_s": Layer(_SETUP, ("reference", "remote")),
    "privacy.calibrate_s": Layer(("setup_s",), _ALL),
    "privacy.calibrate_calls": Layer(("setup_s",), _ALL, True),
    "privacy.rdp_evals": Layer(("setup_s",), _ALL, True),
    "data.load_s": Layer(("setup_s",), _ALL),
    "experiments.prepare_s": Layer(("setup_s",), _ALL),
    "experiments.build_s": Layer(("setup_s",), _ALL),
    "worker.upload_s": Layer(_ROUNDS, ("paper_train", "chaos", "population")),
    "worker.uploads": Layer(_ROUNDS, _ALL, True),
    "worker.us_per_upload": Layer(_ROUNDS, ("paper_train", "chaos")),
    "byzantine.craft_s": Layer(("round_ms_p50",), ("paper_train", "chaos", "population")),
    "server.update_s": Layer(("rounds_per_s",), ("paper_train", "population")),
    "first_stage.filter_s": Layer(("rounds_per_s",), ("paper_train", "population")),
    "second_stage.select_s": Layer(("rounds_per_s",), ("paper_train", "population")),
    "server.rows": Layer(("rounds_per_s",), _ALL, True),
    "first_stage.accept_ratio": Layer(("rounds_per_s",), _ALL, True),
    "second_stage.byzantine_selected_fraction": Layer(("rounds_per_s",), _ALL, True),
    "sampling.prepare_round_s": Layer(("rounds_per_s",), ("population",)),
    # evaluation rounds form the round-latency tail
    "server.evaluate_s": Layer(("round_ms_p90", "wall_s"), _ALL),
    "server.evaluate_calls": Layer(("round_ms_p90", "wall_s"), _ALL, True),
    "faults.dropped": Layer(("rounds_per_s",), ("chaos",), True),
    "faults.crashed": Layer(("rounds_per_s",), ("chaos",), True),
    "faults.retried": Layer(("rounds_per_s",), ("chaos",), True),
    "faults.survivors_mean": Layer(("rounds_per_s",), ("chaos",), True),
    "service.execute_s": Layer(("rounds_per_s", "wall_s"), ("remote",)),
    "wire.encode_s": Layer(("rounds_per_s", "wall_s"), ("remote",)),
    "wire.decode_s": Layer(("rounds_per_s", "wall_s"), ("remote",)),
    "wire.task_bytes_per_round": Layer(("rounds_per_s", "wall_s"), ("remote",), True),
    "wire.result_bytes_per_round": Layer(("rounds_per_s", "wall_s"), ("remote",), True),
    "pipeline.unattributed_s": Layer(("rounds_per_s",), _ALL),
    "trace.overhead_pct": Layer(("wall_s",), _ALL),
}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def units(spec: dict) -> dict[str, str]:
    """Every metric's unit: those of BENCHMARK.json, plus ``runs_failed``.

    ``runs_failed`` is 0 on a healthy run, so BENCHMARK.json does not list
    it; single-workload mode reports it as ``failed`` out of ``attempted``.
    """
    return {"runs_failed": "share",
            **{entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}}


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def quantile(values: list[float], q: float) -> float:
    """The linearly interpolated ``q`` quantile (``q`` in hundredths)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def percentile(values: list[float], q: float) -> float | None:
    """The ``q`` quantile, or ``None`` unless ten samples lie beyond it.

    A tail percentile read from fewer samples is mostly noise, so p90
    needs at least 100 samples and p50 at least 20.
    """
    if len(values) - math.ceil(q * len(values)) < 10:
        return None
    return quantile(values, q)


def describe(values: list[float]) -> dict:
    """Median, quartiles, min and count of one metric's samples."""
    if not values:
        return {"value": None, "q1": None, "q3": None, "min": None, "n": 0, "samples": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "samples": list(values),
    }


def spread(entry: dict) -> float:
    """Interquartile range as a share of the median."""
    value = entry["value"]
    return (entry["q3"] - entry["q1"]) / abs(value) if value else 0.0


# ---------------------------------------------------------------------- #
# one rep
# ---------------------------------------------------------------------- #
@dataclass
class Rep:
    """One repetition of a workload: one or more reaped processes."""

    workload: str
    seed: int
    spawned: float
    reaped: float = 0.0
    exit_codes: list[int] = field(default_factory=list)
    peak_rss_kb: int = 0
    stdout: bytes = b""
    #: child reports, the coordinator (or only process) first
    reports: list[dict] = field(default_factory=list)
    ok: bool = True

    @property
    def run(self) -> dict | None:
        runs = self.reports[0].get("runs") if self.reports else None
        return runs[-1] if runs else None

    @property
    def rounds(self) -> list[list[float]]:
        run = self.run
        return run["rounds"] if run else []

    @property
    def wall_s(self) -> float:
        return self.reaped - self.spawned

    def completed(self) -> bool:
        return bool(self.rounds) and all(code == 0 for code in self.exit_codes)

    def fingerprint(self) -> dict:
        run = self.run or {}
        kept = b"".join(
            line for line in self.stdout.splitlines(keepends=True)
            if not any(pattern.match(line) for pattern in VOLATILE_LINES)
        )
        return {
            "stdout_sha256": hashlib.sha256(kept).hexdigest(),
            "params_sha256": run.get("params_sha256"),
            "final_accuracy": run.get("final_accuracy"),
        }

    def metrics(self) -> dict[str, float]:
        """The rep's end-to-end values (latencies are pooled separately)."""
        rounds = self.rounds
        return {
            "wall_s": self.wall_s,
            "setup_s": rounds[0][0] - self.spawned,
            "rounds_per_s": len(rounds) / (rounds[-1][1] - rounds[0][0]),
            "peak_rss_mib": self.peak_rss_kb / 1024.0,
        }

    def latencies_ms(self) -> list[float]:
        return [(end - start) * 1e3 for start, end in self.rounds]


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}-seed{seed}.json"


def load_expected(workload: str, seed: int) -> dict | None:
    path = expected_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def judge(reps: list[Rep], expected: dict | None) -> int:
    """Mark each rep ok or failed; returns the number of failures.

    A rep fails on a nonzero exit, on a missing round record, or on a
    fingerprint other than the committed one.  Without a committed
    fingerprint (an ``unchecked`` seed) every rep must match the first
    completed one.  On seed 1, ``reference`` stdout must also equal the
    committed CI baseline byte for byte.
    """
    keys = ("stdout_sha256", "params_sha256", "final_accuracy")
    reference = None if expected is None else {key: expected[key] for key in keys}
    baseline = None
    failures = 0
    for rep in reps:
        rep.ok = rep.completed()
        if rep.ok:
            fingerprint = rep.fingerprint()
            if reference is None:
                reference = fingerprint
            rep.ok = fingerprint == reference
        if rep.ok and rep.workload == "reference" and rep.seed == 1:
            if baseline is None:
                baseline = REFERENCE_STDOUT.read_bytes()
            rep.ok = rep.stdout == baseline
        failures += not rep.ok
    return failures


class Runner:
    """Spawns and reaps reps; owns a scratch directory under BUILD_DIR."""

    def __init__(self) -> None:
        BUILD_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="e2e-", dir=BUILD_DIR))
        (self.work / "tmp").mkdir()
        python_path = [str(ROOT / "src")]
        if os.environ.get("PYTHONPATH"):
            python_path.append(os.environ["PYTHONPATH"])
        self.env = {
            **os.environ,
            **BLAS_PINS,
            "PYTHONPATH": os.pathsep.join(python_path),
            "TMPDIR": str(self.work / "tmp"),
        }
        self.env.pop(REPORT_ENV, None)
        self.env.pop(WAIT_ENV, None)
        self._count = 0

    def __enter__(self) -> Runner:
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            BUILD_DIR.rmdir()
        except OSError:  # another invocation's scratch is still there
            pass

    def warm_up(self) -> None:
        """Import the program once, untimed: bytecode and page caches fill."""
        subprocess.run([sys.executable, "-c", "import repro.cli"], env=self.env,
                       cwd=ROOT, check=True, timeout=REP_TIMEOUT_S)

    def _spawn(self, argv: list[str], traced: bool, extra: dict | None = None):
        self._count += 1
        tag = self.work / f"p{self._count}"
        env = {**self.env, REPORT_ENV: f"{tag}.json", TRACE_ENV: "1" if traced else "0",
               **(extra or {})}
        with open(f"{tag}.out", "wb") as out, open(f"{tag}.err", "wb") as err:
            process = subprocess.Popen(
                [sys.executable, str(CHILD), *argv], cwd=ROOT, env=env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
        return process, tag

    def rep(self, workload: Workload, seed: int, traced: bool = False) -> Rep:
        """Run one rep to completion and collect its measurements."""
        extra_worker_env = None
        if workload.command is not None:
            argvs = [workload.command(seed)]
        else:
            config = self.work / f"remote-seed{seed}.json"
            if not config.exists():
                config.write_text(remote_config_json(seed), encoding="utf-8")
            port = _free_port()
            argvs = [["serve", "--config", str(config), "--workers", str(REMOTE_WORKERS),
                      "--host", "127.0.0.1", "--port", str(port)]]
            argvs += [["worker", "--host", "127.0.0.1", "--port", str(port)]] * REMOTE_WORKERS
            extra_worker_env = {WAIT_ENV: f"127.0.0.1:{port}"}
        rep = Rep(workload.name, seed, spawned=time.monotonic())
        spawned = [self._spawn(argvs[0], traced)]
        spawned += [self._spawn(argv, traced, extra_worker_env) for argv in argvs[1:]]
        processes = [process for process, _ in spawned]
        rep.exit_codes, rep.reaped, rep.peak_rss_kb = _reap_all(processes)
        rep.reports = [_read_report(Path(f"{tag}.json")) for _, tag in spawned]
        rep.stdout = Path(f"{spawned[0][1]}.out").read_bytes()
        return rep

    def stderr_of_last(self) -> str:
        return (self.work / f"p{self._count}.err").read_text(errors="replace")


def _read_report(path: Path) -> dict:
    """A child's report; empty when the child was killed before writing it."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _kill(processes) -> None:
    for process in processes:
        if process.returncode is None:
            try:
                os.kill(process.pid, signal.SIGKILL)
            except OSError:
                pass


def _reap_all(processes) -> tuple[list[int], float, int]:
    """Wait for every process; returns exit codes, reap time, max RSS (KiB).

    ``os.wait4`` gives each child's own peak RSS.  A rep that outlives
    :data:`REP_TIMEOUT_S` is killed; if the first process (the
    coordinator) fails, the others are killed at once.  No process
    outlives this call, even when it is interrupted.
    """
    watchdog = threading.Timer(REP_TIMEOUT_S, _kill, args=(processes,))
    watchdog.daemon = True
    watchdog.start()
    codes: list[int] = []
    peak = 0
    try:
        for index, process in enumerate(processes):
            _, status, usage = os.wait4(process.pid, 0)
            process.returncode = os.waitstatus_to_exitcode(status)
            codes.append(process.returncode)
            peak = max(peak, usage.ru_maxrss)
            if index == 0 and process.returncode != 0:
                _kill(processes)
    finally:
        watchdog.cancel()
        _kill(processes)
        for process in processes:
            if process.returncode is None:
                process.wait()
    return codes, time.monotonic(), peak


# ---------------------------------------------------------------------- #
# aggregation of reps
# ---------------------------------------------------------------------- #
def summarize(reps: list[Rep], spec: dict) -> dict:
    """The :data:`UNTRACED` metrics of a workload's ok reps, and ``runs_failed``.

    A value is ``None`` when no rep completed, or for a percentile with
    too few samples beyond it.
    """
    good = [rep for rep in reps if rep.ok]
    per_rep = [rep.metrics() for rep in good]
    summary = {
        name: describe([values[name] for values in per_rep])
        for name in ("wall_s", "setup_s", "rounds_per_s", "peak_rss_mib")
    }
    pooled = [ms for rep in good for ms in rep.latencies_ms()]
    for name, q in (("round_ms_p50", 0.5), ("round_ms_p90", 0.9)):
        # the quartiles describe per-rep values; the median is pooled
        entry = describe([quantile(rep.latencies_ms(), q) for rep in good])
        entry["value"] = percentile(pooled, q)
        entry["n"] = len(pooled)
        summary[name] = entry
    failed = sum(not rep.ok for rep in reps)
    summary["runs_failed"] = {"value": failed / len(reps) if reps else 1.0,
                              "q1": 0.0, "q3": 0.0, "min": 0.0, "n": len(reps)}
    unit_of = units(spec)
    for name, entry in summary.items():
        entry["unit"] = unit_of[name]
    return summary


def layer_values(rep: Rep, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced rep, summed over its processes."""
    main = rep.reports[0]
    run = rep.run
    traces = [report.get("trace", {}) for report in rep.reports]

    def total(kind: str, key: str) -> float:
        return float(sum(trace.get(kind, {}).get(key, 0.0) for trace in traces))

    def own(key: str) -> float:
        return total("self_s", key)

    rounds = run["rounds"]
    diagnostics = run["diagnostics"]
    round_s = sum(end - start for start, end in rounds)
    uploads = total("counts", "worker.upload.rows")
    checked_rows = total("counts", "first_stage.rows")
    survivors = [d["fault_survivors"] for d in diagnostics if "fault_survivors" in d]
    main_counts = main.get("trace", {}).get("counts", {})

    def faults(key: str) -> float:
        return float(sum(d.get(key, 0.0) for d in diagnostics))

    return {
        "cli.import_s": float(sum(report.get("import_s", 0.0) for report in rep.reports)),
        "privacy.calibrate_s": total("total_s", "privacy.calibrate"),
        "privacy.calibrate_calls": total("calls", "privacy.calibrate"),
        "privacy.rdp_evals": total("calls", "privacy.rdp"),
        "data.load_s": own("data.load"),
        "experiments.prepare_s": total("total_s", "experiments.prepare"),
        "experiments.build_s": own("experiments.prepare"),
        "worker.upload_s": own("worker.upload"),
        "worker.uploads": uploads,
        "worker.us_per_upload": 1e6 * own("worker.upload") / uploads if uploads else 0.0,
        "byzantine.craft_s": own("byzantine.craft"),
        "server.update_s": own("server.update"),
        "first_stage.filter_s": own("first_stage.filter"),
        "second_stage.select_s": own("second_stage.select"),
        "server.rows": total("counts", "server.rows"),
        "first_stage.accept_ratio": (
            total("counts", "first_stage.accepted") / checked_rows if checked_rows else 0.0
        ),
        "second_stage.byzantine_selected_fraction": statistics.fmean(
            d.get("byzantine_selected_fraction", 0.0) for d in diagnostics
        ),
        "sampling.prepare_round_s": own("sampling.prepare_round"),
        "server.evaluate_s": own("server.evaluate"),
        "server.evaluate_calls": total("calls", "server.evaluate"),
        "faults.dropped": faults("fault_dropped"),
        "faults.crashed": faults("fault_crashed"),
        "faults.retried": faults("fault_retried"),
        "faults.survivors_mean": statistics.fmean(survivors) if survivors else 0.0,
        "service.execute_s": own("service.execute"),
        "wire.encode_s": own("wire.encode"),
        "wire.decode_s": own("wire.decode"),
        "wire.task_bytes_per_round": main_counts.get("wire.task_bytes", 0.0) / len(rounds),
        "wire.result_bytes_per_round": (
            main_counts.get("wire.decode.bytes", 0.0) / len(rounds)
        ),
        "pipeline.unattributed_s": round_s - main.get("trace", {}).get("root_s", 0.0),
        "trace.overhead_pct": 100.0 * (rep.wall_s / untraced_wall_s - 1.0),
    }


def summarize_layers(traced: list[Rep], untraced: dict, spec: dict) -> tuple[dict, list[str]]:
    """Median :data:`LAYERS` values over the ok traced reps, plus determinism breaches.

    ``untraced`` is the :func:`summarize` of the untraced reps; their
    median wall time is what the tracing overhead is measured against.
    """
    wall_s = untraced["wall_s"]["value"] or 1.0
    rows = [layer_values(rep, wall_s) for rep in traced if rep.ok]
    unit_of = units(spec)
    layers = {}
    breaches = []
    for name, layer in LAYERS.items():
        values = [row[name] for row in rows]
        if layer.deterministic and len(set(values)) > 1:
            breaches.append(f"{name} differs between traced reps: {values}")
        layers[name] = {"value": statistics.median(values) if values else None,
                        "unit": unit_of[name]}
    return layers, breaches


# ---------------------------------------------------------------------- #
# single-workload mode: one workload for a fixed time
# ---------------------------------------------------------------------- #
def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Reps of one workload for ``seconds``; the object printed as the last line.

    It holds ``correct``, ``attempted``, ``failed`` and ``metrics``: the
    end-to-end metrics of ``BENCHMARK.json``, or its per-layer ones when
    ``trace`` is set.  A metric that could not be measured (no completed
    rep, or a percentile with too few samples) is left out, and then the
    run is not ``correct``.
    """
    spec = load_spec()
    untraced: list[Rep] = []
    traced: list[Rep] = []
    with Runner() as runner:
        runner.warm_up()
        started = time.monotonic()
        durations: list[float] = []
        while True:
            as_traced = trace and len(traced) < len(untraced)
            rep = runner.rep(workload, seed, traced=as_traced)
            (traced if as_traced else untraced).append(rep)
            durations.append(rep.wall_s)
            elapsed = time.monotonic() - started
            enough = len(untraced) >= workload.min_reps and len(traced) >= trace
            if elapsed > HARD_CAP_S or (
                enough and elapsed + statistics.median(durations) > seconds
            ):
                break
        expected = load_expected(workload.name, seed)
        failed = judge(untraced + traced, expected)
        correct = failed == 0
        values = summarize(untraced, spec)
        names = [entry["name"] for entry in spec["end_to_end"]]
        if trace:
            layers, breaches = summarize_layers(traced, values, spec)
            values = {**values, **layers}
            names = [entry["name"] for entry in spec["per_layer"]]
            for breach in breaches:
                print(f"determinism: {breach}")
            correct = correct and not breaches
            if correct:
                # tracing observes only: traced and untraced reps agree
                correct = all(
                    rep.fingerprint() == untraced[0].fingerprint() for rep in traced
                )
        if failed:
            print(f"{failed} failed rep(s); last stderr:\n{runner.stderr_of_last()}")
    print(f"{workload.name} seed {seed}: {len(untraced)} untraced + {len(traced)} traced "
          f"reps, fingerprint {'checked' if expected else 'unchecked'}")
    metrics = reported(values, names)
    for name in names:
        shown = f"{metrics[name]['value']:14.6f}" if name in metrics else "  not measured"
        print(f"  {name:42s} {shown} {values[name]['unit']}")
    return {"correct": bool(correct) and len(metrics) == len(names),
            "attempted": len(untraced) + len(traced), "failed": failed, "metrics": metrics}


def reported(values: dict, names: list[str]) -> dict[str, dict]:
    """The named metrics with their units, leaving out any not measured.

    A percentile with too few samples beyond it is not measured; a 0 in
    its place would read as a large gain on a lower-is-better metric.
    """
    return {name: {"value": values[name]["value"], "unit": values[name]["unit"]}
            for name in names if values[name]["value"] is not None}


# ---------------------------------------------------------------------- #
# `run`: every workload, interleaved, then a traced pass
# ---------------------------------------------------------------------- #
def host_info() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_PINS["OPENBLAS_NUM_THREADS"],
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def interleaved() -> list[Workload]:
    """Every rep of a set, round-robin, each workload's spread over the set.

    Rep ``i`` of a workload with ``n`` reps sits at ``(i + 0.5) / n`` of
    the set, so a slow window of the host lands on every workload, also
    on those with more reps than the others.
    """
    slots = sorted(((index + 0.5) / workload.reps, position, workload)
                   for position, workload in enumerate(WORKLOADS.values())
                   for index in range(workload.reps))
    return [workload for _, _, workload in slots]


def run_set(seed: int) -> dict:
    """One set: reps interleaved across workloads, then one traced rep each."""
    spec = load_spec()
    reps: dict[str, list[Rep]] = {name: [] for name in WORKLOADS}
    traced: dict[str, Rep] = {}
    with Runner() as runner:
        runner.warm_up()
        for workload in interleaved():
            rep = runner.rep(workload, seed)
            reps[workload.name].append(rep)
            print(f"  rep {len(reps[workload.name])}/{workload.reps} {workload.name:12s} "
                  f"{rep.wall_s:7.3f} s  exit {rep.exit_codes}", flush=True)
        for workload in WORKLOADS.values():
            traced[workload.name] = runner.rep(workload, seed, traced=True)
            print(f"  traced     {workload.name:12s} {traced[workload.name].wall_s:7.3f} s",
                  flush=True)
    results = {"seed": seed, "host": host_info(), "workloads": {}}
    for name, workload_reps in reps.items():
        expected = load_expected(name, seed)
        judge(workload_reps + [traced[name]], expected)
        summary = summarize(workload_reps, spec)
        layers, _ = summarize_layers([traced[name]], summary, spec)
        round_s = sum(end - start for start, end in traced[name].rounds) or 1.0
        unattributed = layers["pipeline.unattributed_s"]["value"]
        results["workloads"][name] = {
            "fingerprint": "checked" if expected else "unchecked",
            "runs_attempted": len(workload_reps),
            "traced_ok": traced[name].ok,
            "reps_seconds": sum(rep.wall_s for rep in workload_reps),
            "metrics": summary,
            "layers": layers,
            "unattributed_share": None if unattributed is None else unattributed / round_s,
        }
    return results


def _shown(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_results(results: dict) -> None:
    for name, entry in results["workloads"].items():
        print(f"\n{name}  (seed {results['seed']}, {entry['runs_attempted']} reps in "
              f"{entry['reps_seconds']:.1f} s, fingerprint {entry['fingerprint']})")
        for metric, value in entry["metrics"].items():
            print(f"  {metric:42s} {_shown(value['value']):>14s} {value['unit']:8s} "
                  f"[q1 {_shown(value['q1'])}, q3 {_shown(value['q3'])}, n {value['n']}]")
        print(f"  {'runs_attempted':42s} {entry['runs_attempted']:>14d} count")
        for metric, value in entry["layers"].items():
            print(f"  {metric:42s} {_shown(value['value']):>14s} {value['unit']}")
        share = entry["unattributed_share"]
        print(f"  {'(unattributed share of round time)':42s} "
              f"{'n/a' if share is None else f'{share:.2%}':>14s}")


def command_run(arguments: argparse.Namespace) -> int:
    results = run_set(arguments.seed)
    print_results(results)
    if arguments.out:
        Path(arguments.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    failed = any(entry["metrics"]["runs_failed"]["value"] or not entry["traced_ok"]
                 for entry in results["workloads"].values())
    return 1 if failed else 0


# ---------------------------------------------------------------------- #
# `compare`
# ---------------------------------------------------------------------- #
def verdict(base: dict, other: dict, better: str, bound: float) -> str:
    """``agree``, ``worse``, ``better`` or ``unresolved`` for one pair."""
    if not base["value"] or other["value"] is None:
        return "unresolved"
    if spread(base) > bound or spread(other) > bound:
        return "unresolved"
    change = (other["value"] - base["value"]) / base["value"]
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "agree"


def compare(base: dict, other: dict, spec: dict) -> tuple[list[list[str]], int]:
    """Rows of the comparison and the exit code (1 on any disagreement)."""
    rows = []
    status = 0
    for name in base["workloads"]:
        if name not in other["workloads"]:
            continue
        a, b = base["workloads"][name], other["workloads"][name]
        for entry in spec["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            ma, mb = a["metrics"][metric], b["metrics"][metric]
            result = verdict(ma, mb, entry["better"], bound)
            status |= result in ("worse", "better")
            ratio = (f"{mb['value'] / ma['value']:.3f}x of A"
                     if ma["value"] and mb["value"] is not None else "n/a")
            rows.append([name, metric, _cell(ma), _cell(mb), ratio, f"{bound:.0%}", result])
        for metric, layer in LAYERS.items():
            if layer.deterministic and a["layers"][metric] != b["layers"][metric]:
                status = 1
                rows.append([name, metric, str(a["layers"][metric]["value"]),
                             str(b["layers"][metric]["value"]), "-", "exact", "differs"])
        if b["metrics"]["runs_failed"]["value"] > a["metrics"]["runs_failed"]["value"]:
            status = 1
            rows.append([name, "runs_failed", str(a["metrics"]["runs_failed"]["value"]),
                         str(b["metrics"]["runs_failed"]["value"]), "-", "0", "worse"])
    return rows, status


def _cell(entry: dict) -> str:
    if entry["value"] is None:
        return "n/a"
    return f"{entry['value']:.4g} [{entry['q1']:.4g}-{entry['q3']:.4g}]"


def command_compare(arguments: argparse.Namespace) -> int:
    base = json.loads(Path(arguments.base).read_text(encoding="utf-8"))
    other = json.loads(Path(arguments.other).read_text(encoding="utf-8"))
    rows, status = compare(base, other, load_spec())
    header = ["workload", "metric", "A median [q1-q3]", "B median [q1-q3]", "B/A", "bound",
              "verdict"]
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    return status


# ---------------------------------------------------------------------- #
# `record` and `expect`
# ---------------------------------------------------------------------- #
def command_record(arguments: argparse.Namespace) -> int:
    sets = [json.loads(Path(path).read_text(encoding="utf-8")) for path in arguments.results]
    trajectory = (json.loads(TRAJECTORY.read_text(encoding="utf-8"))
                  if TRAJECTORY.exists() else [])
    trajectory.append({
        "label": arguments.label,
        "date": datetime.date.today().isoformat(),
        "host": sets[0]["host"],
        "seed": sets[0]["seed"],
        "sets": [_strip_samples(results) for results in sets],
    })
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    print(f"appended {arguments.label!r} to {TRAJECTORY.relative_to(ROOT)} "
          f"({len(trajectory)} entries)")
    return 0


def _strip_samples(results: dict) -> dict:
    """Results without the host block and with medians and quartiles only."""
    return {
        name: {
            "metrics": {metric: {key: value[key] for key in ("value", "q1", "q3", "n", "unit")}
                        for metric, value in entry["metrics"].items()},
            "layers": {metric: value["value"] for metric, value in entry["layers"].items()},
        }
        for name, entry in results["workloads"].items()
    }


def command_expect(arguments: argparse.Namespace) -> int:
    """Record fingerprints for EXPECTED_SEEDS, cross-checking parallel workloads.

    ``chaos`` must equal the same run on ``--backend serial``, and
    ``remote`` must equal ``repro run`` on the same config in-process.
    """
    EXPECTED_DIR.mkdir(exist_ok=True)
    status = 0
    with Runner() as runner:
        runner.warm_up()
        for seed in EXPECTED_SEEDS:
            for workload in WORKLOADS.values():
                rep = runner.rep(workload, seed)
                if not rep.completed():
                    print(f"{workload.name} seed {seed}: exit {rep.exit_codes}\n"
                          f"{runner.stderr_of_last()}")
                    return 1
                fingerprint = rep.fingerprint()
                if workload.name == "chaos":
                    twin = runner.rep(Workload("chaos", 1, 1, lambda s: _chaos(s, "serial")),
                                      seed)
                elif workload.name == "remote":
                    config = runner.work / f"remote-seed{seed}.json"
                    twin = runner.rep(Workload("remote", 1, 1,
                                               lambda s, c=config: ["run", "--config", str(c)]),
                                      seed)
                else:
                    twin = rep
                if twin.fingerprint() != fingerprint:
                    print(f"{workload.name} seed {seed}: differs from its serial twin")
                    status = 1
                    continue
                if judge([rep], None) or (workload.name == "reference" and seed == 1
                                          and rep.stdout != REFERENCE_STDOUT.read_bytes()):
                    status = 1
                    continue
                record = {"workload": workload.name, "seed": seed, **fingerprint,
                          "rounds": len(rep.rounds)}
                expected_path(workload.name, seed).write_text(
                    json.dumps(record, indent=1) + "\n", encoding="utf-8")
                print(f"{workload.name} seed {seed}: {fingerprint['params_sha256'][:16]} "
                      f"accuracy {fingerprint['final_accuracy']}")
    return status


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def _single_workload_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="Run one workload for a fixed time.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _command_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="one set of every workload")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--out", default=None, metavar="RESULTS.json")
    compare_parser = commands.add_parser("compare", help="compare two result files")
    compare_parser.add_argument("base", metavar="A.json")
    compare_parser.add_argument("other", metavar="B.json")
    record = commands.add_parser("record", help="append results to trajectory.json")
    record.add_argument("--label", required=True)
    record.add_argument("results", nargs="+", metavar="RESULTS.json")
    commands.add_parser("expect", help="record the committed fingerprints")
    return parser


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if argv and argv[0] in ("run", "compare", "record", "expect"):
        arguments = _command_parser().parse_args(argv)
        return {
            "run": command_run,
            "compare": command_compare,
            "record": command_record,
            "expect": command_expect,
        }[arguments.command](arguments)
    arguments = _single_workload_parser().parse_args(argv)
    seconds = arguments.seconds or load_spec()["run_seconds"]
    result = measure(WORKLOADS[arguments.workload], arguments.seed, seconds,
                     bool(arguments.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
