"""Bench-side harness around one ``repro`` process.

Run as ``python child.py <repro arguments>``.  The harness

1. imports :mod:`repro.cli` and times the import;
2. wraps ``FederatedSimulation.run`` so every run gets one extra
   :class:`~repro.federated.pipeline.RoundCallback` -- the round clock,
   two ``time.monotonic`` reads per round -- and, when the run returns,
   hashes the final flat parameters;
3. with ``REPRO_BENCH_TRACE=1`` only, wraps the layers' *public*
   functions (see :data:`WRAPPED`) in self-timing spans;
4. calls ``repro.cli.main(argv)``, so the process under test runs
   exactly what ``python -m repro <arguments>`` runs;
5. writes a JSON report to the path in ``REPRO_BENCH_REPORT`` on exit.

Nothing inside the program is traced: every span is measured from out
here, around calls into a layer.  ``time.monotonic`` is system-wide on
Linux, so ``bench.py`` compares the round timestamps with its own spawn
time.  ``REPRO_BENCH_WAIT_FOR=host:port`` makes a ``repro worker``
process wait until the coordinator accepts connections before it starts,
which keeps the worker's reconnect back-off out of the measurement.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import socket
import sys
import threading
import time
from collections import defaultdict

REPORT_ENV = "REPRO_BENCH_REPORT"
TRACE_ENV = "REPRO_BENCH_TRACE"
WAIT_ENV = "REPRO_BENCH_WAIT_FOR"


class SpanTracer:
    """Self time, call counts and counters for nested wrapper spans.

    Every thread keeps its own stack of open spans.  A span's elapsed
    time is charged to its parent's child time, so ``self_s[name]`` is
    the time spent in that span and not in any span nested in it.  Spans
    opened on an empty main-thread stack while a round is open add up in
    ``root_s``: the part of round time the wrapped layers cover.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.in_round = False
        #: the running simulation's Byzantine pool (its uploads are charged
        #: to the byzantine layer, every other pool's to the worker layer)
        self.byzantine_pool = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        """Open a span; returns the frame :meth:`exit` closes."""
        frame = [name, self.clock(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        """Close the innermost span (``frame``), charging its times."""
        elapsed = self.clock() - frame[1]
        stack = self._stack()
        stack.pop()
        name = frame[0]
        with self._lock:
            self.self_s[name] += elapsed - frame[2]
            self.total_s[name] += elapsed
            self.calls[name] += 1
            if stack:
                stack[-1][2] += elapsed
            elif self.in_round and threading.current_thread() is self._main:
                self.root_s += elapsed

    def count(self, key: str, amount: float) -> None:
        """Add ``amount`` to the counter ``key``."""
        with self._lock:
            self.counts[key] += amount

    def as_dict(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "root_s": self.root_s,
        }


def _span_wrapper(tracer: SpanTracer, function, name: str):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def _pool_span(tracer: SpanTracer, pool) -> str:
    return "byzantine.craft" if pool is tracer.byzantine_pool else "worker.upload"


def _compute_uploads_wrapper(tracer: SpanTracer, function):
    @functools.wraps(function)
    def wrapper(pool, model, *args, **kwargs):
        name = _pool_span(tracer, pool)
        frame = tracer.enter(name)
        try:
            uploads = function(pool, model, *args, **kwargs)
        finally:
            tracer.exit(frame)
        tracer.count(f"{name}.rows", uploads.shape[0])
        return uploads

    return wrapper


def _upload_blocks_wrapper(tracer: SpanTracer, function):
    """Time every ``next()`` on the streamed upload blocks."""

    @functools.wraps(function)
    def wrapper(pool, model):
        name = _pool_span(tracer, pool)
        blocks = function(pool, model)
        while True:
            frame = tracer.enter(name)
            try:
                block = next(blocks)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            tracer.count(f"{name}.rows", block.shape[0])
            yield block

    return wrapper


def _update_wrapper(tracer: SpanTracer, function, streamed: bool):
    """Server update span plus the rows and first-stage acceptances it saw."""

    @functools.wraps(function)
    def wrapper(server, uploads, *args, **kwargs):
        frame = tracer.enter("server.update")
        try:
            aggregated = function(server, uploads, *args, **kwargs)
        finally:
            tracer.exit(frame)
        if streamed:
            rows = kwargs["n_rows"] if "n_rows" in kwargs else args[0]
        else:
            rows = uploads.shape[0]
        tracer.count("server.rows", int(rows))
        accepted = getattr(server.aggregator, "last_first_stage_accepted", None)
        if accepted is not None:
            tracer.count("first_stage.rows", len(accepted))
            tracer.count("first_stage.accepted", int(accepted.sum()))
        return aggregated

    return wrapper


def _blob_wrapper(tracer: SpanTracer, function, name: str):
    @functools.wraps(function)
    def wrapper(value):
        frame = tracer.enter(name)
        try:
            result = function(value)
        finally:
            tracer.exit(frame)
        tracer.count(f"{name}.bytes", len(result if name == "wire.encode" else value))
        return result

    return wrapper


def _close_wrapper(tracer: SpanTracer, function):
    """Read the task-frame byte counters before the links are dropped."""

    @functools.wraps(function)
    def wrapper(server, *args, **kwargs):
        sent = sum(row["bytes_sent"] for row in server.worker_status())
        tracer.count("wire.task_bytes", sent)
        return function(server, *args, **kwargs)

    return wrapper


def _span(name: str):
    return functools.partial(_span_wrapper, name=name)


#: ``(module, attribute, wrapper factory)``: every call a traced run
#: wraps.  A wrapper opens a span (see :class:`SpanTracer`); some also
#: count rows, acceptances or bytes as the call returns.
WRAPPED = (
    ("repro.core.hyperparams", "calibrate_sigma", _span("privacy.calibrate")),
    ("repro.privacy.calibration", "compute_rdp", _span("privacy.rdp")),
    ("repro.experiments.runner", "load_dataset", _span("data.load")),
    ("repro.experiments.runner", "partition_iid", _span("data.load")),
    ("repro.experiments.runner", "partition_noniid", _span("data.load")),
    ("repro.experiments.runner", "prepare_experiment", _span("experiments.prepare")),
    ("repro.federated.worker", "WorkerPool.compute_uploads", _compute_uploads_wrapper),
    ("repro.federated.worker", "WorkerPool.iter_upload_blocks", _upload_blocks_wrapper),
    ("repro.federated.simulation", "FederatedSimulation.byzantine_uploads",
     _span("byzantine.craft")),
    ("repro.federated.simulation", "FederatedSimulation.prepare_round",
     _span("sampling.prepare_round")),
    ("repro.federated.server", "Server.update",
     functools.partial(_update_wrapper, streamed=False)),
    ("repro.federated.server", "Server.update_stream",
     functools.partial(_update_wrapper, streamed=True)),
    ("repro.federated.server", "Server.evaluate", _span("server.evaluate")),
    ("repro.core.first_stage", "FirstStageFilter.apply_batch", _span("first_stage.filter")),
    ("repro.core.second_stage", "SecondStageSelector.select", _span("second_stage.select")),
    ("repro.core.second_stage", "SecondStageSelector.select_scored",
     _span("second_stage.select")),
    ("repro.federated.service", "CoordinatorServer.execute", _span("service.execute")),
    ("repro.federated.service", "CoordinatorServer.close", _close_wrapper),
    # as bound in the service module: the coordinator encodes tasks and
    # decodes results, a worker process the other way round
    ("repro.federated.service", "encode_blob",
     functools.partial(_blob_wrapper, name="wire.encode")),
    ("repro.federated.service", "decode_blob",
     functools.partial(_blob_wrapper, name="wire.decode")),
)


def _resolve(module_name: str, attribute: str):
    """``(owner, leaf name, current value)`` or ``None`` if it is gone."""
    module = sys.modules.get(module_name)
    if module is None:
        try:
            __import__(module_name)
        except ImportError:
            return None
        module = sys.modules[module_name]
    owner = module
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    return None if value is None else (owner, leaf, value)


def install_spans(tracer: SpanTracer) -> None:
    """Wrap every call in :data:`WRAPPED` that exists in this version.

    A call a later refactor removes is skipped, which shows as a zero
    in its layer metric rather than as a crashed benchmark.
    """
    for module_name, attribute, make_wrapper in WRAPPED:
        resolved = _resolve(module_name, attribute)
        if resolved is not None:
            owner, leaf, function = resolved
            setattr(owner, leaf, make_wrapper(tracer, function))


def install_round_clock(report: dict, tracer: SpanTracer | None) -> None:
    """Append a round clock to every ``FederatedSimulation.run``."""
    from repro.federated.pipeline import RoundCallback
    from repro.federated.simulation import FederatedSimulation

    class RoundClock(RoundCallback):
        def __init__(self) -> None:
            self.rounds: list[list[float]] = []
            self.diagnostics: list[dict] = []

        def on_round_start(self, event) -> None:
            self.rounds.append([time.monotonic(), 0.0])
            if tracer is not None:
                tracer.in_round = True

        def on_round_end(self, event) -> None:
            self.rounds[-1][1] = time.monotonic()
            if tracer is not None:
                tracer.in_round = False
                self.diagnostics.append(
                    {key: float(value) for key, value in event.diagnostics.items()}
                )

    original = FederatedSimulation.run

    @functools.wraps(original)
    def run(simulation, callbacks=()):
        clock = RoundClock()
        if tracer is not None:
            tracer.byzantine_pool = simulation.byzantine_pool
        history = original(simulation, [*callbacks, clock])
        parameters = simulation.model.get_flat_parameters()
        report["runs"].append({
            "rounds": clock.rounds,
            "diagnostics": clock.diagnostics,
            "params_sha256": hashlib.sha256(
                parameters.astype("<f8", copy=False).tobytes()
            ).hexdigest(),
            "final_accuracy": history.final_accuracy,
        })
        return history

    FederatedSimulation.run = run


def wait_for_port(target: str, timeout: float = 60.0) -> None:
    """Block until ``host:port`` accepts a TCP connection."""
    host, _, port = target.rpartition(":")
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection((host, int(port)), timeout=1.0).close()
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.005)


def main(argv: list[str]) -> int:
    started = time.monotonic()
    traced = os.environ.get(TRACE_ENV) == "1"
    report: dict = {"argv": argv, "started": started, "runs": [], "exit": None}
    tracer = SpanTracer() if traced else None
    code: int | str | None = 1
    try:
        import_started = time.monotonic()
        import repro.cli

        report["import_s"] = time.monotonic() - import_started
        install_round_clock(report, tracer)
        if tracer is not None:
            install_spans(tracer)
        wait_target = os.environ.get(WAIT_ENV)
        if wait_target:
            wait_for_port(wait_target)
        code = repro.cli.main(argv)
    except SystemExit as error:
        code = error.code
    finally:
        report["exit"] = code if isinstance(code, int) else (0 if code is None else 1)
        if tracer is not None:
            report["trace"] = tracer.as_dict()
        path = os.environ.get(REPORT_ENV)
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(report, handle)
    if isinstance(code, str):
        print(code, file=sys.stderr)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
