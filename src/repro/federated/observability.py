"""Coordinator observability: status endpoint, admin API, tracing hooks.

Service mode (:mod:`repro.federated.service`) turns the coordinator into
a long-lived process; this module gives operators a window into it --
without ever touching the training numerics.  Three pieces:

- **Status/metrics endpoint** -- :class:`StatusServer`, a stdlib
  :mod:`http.server` HTTP server on a daemon thread (``repro serve
  --status-port``):

  ========================  =============================================
  route                     payload
  ========================  =============================================
  ``GET /healthz``          liveness probe (``{"status": "ok"}``)
  ``GET /status``           round progress, population/cohort, connected
                            workers with last-heartbeat ages, quorum
                            margin, cumulative fault counters
  ``GET /metrics``          the latest :class:`~repro.federated.pipeline
                            .MetricsWriter` record as JSON;
                            ``?format=prometheus`` renders the Prometheus
                            text exposition instead
  ``POST /admin/<verb>``    admin API: ``pause`` / ``resume`` (global
                            dispatch), ``drain/<worker>`` /
                            ``undrain/<worker>`` (per-worker)
  ========================  =============================================

  Read paths are lock-free: the round loop *publishes* a versioned
  immutable :class:`StatusSnapshot` to a :class:`StatusBoard` and HTTP
  handlers only ever read the current snapshot reference (an atomic
  attribute load), so a slow or hostile scraper can never stall a round.

- **Admin control** -- the verbs are forwarded to the live
  :class:`~repro.federated.service.CoordinatorServer`: a *drained*
  worker finishes its in-flight task but receives no new ones; *pause*
  stops all dispatch until *resume*.  ``repro status`` / ``repro admin``
  speak this API over HTTP (:func:`fetch_json`, :func:`post_admin`).

- **Tracing hooks** -- :class:`TraceRecorder`, a
  :class:`~repro.federated.pipeline.RoundCallback` that appends span
  records (round, stage, task, wire round-trip, retry) to a JSONL file.
  The training loop and the execution backends discover it through the
  ``trace_span`` / ``trace_event`` duck-typed seam, so tracing is off by
  default and, when enabled, **bitwise-neutral**: spans only observe
  wall-clock time around existing calls -- they never consume RNG, touch
  arrays, or write to stdout.  The neutrality is asserted (CLI output
  and metrics JSONL byte-identical with tracing on), exactly like the
  zero-fault gate of the FAULTS axis.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import MappingProxyType

from repro.core.config import ADMIN_VERBS, DEFAULT_STATUS_PORT
from repro.federated.faults import resolve_quorum
from repro.federated.pipeline import (
    EvaluationEvent,
    RoundCallback,
    RoundEndEvent,
    RoundStartEvent,
)

__all__ = [
    "ADMIN_VERBS",
    "DEFAULT_STATUS_PORT",
    "AdminError",
    "StatusBoard",
    "StatusReporter",
    "StatusServer",
    "StatusSnapshot",
    "TraceRecorder",
    "fetch_json",
    "post_admin",
    "render_prometheus",
]


class AdminError(RuntimeError):
    """An admin request that the coordinator rejected.

    Attributes
    ----------
    status:
        The HTTP status code conveying the rejection (400 for a bad
        verb, 404 for an unknown worker, 503 when no coordinator is
        attached to the endpoint).
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------- #
# versioned immutable snapshots
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class StatusSnapshot:
    """One immutable published state of the run.

    Attributes
    ----------
    version:
        Monotonic publication counter (0 = nothing published yet).
        Readers can detect change by comparing versions.
    payload:
        The published fields, as a read-only mapping.  Values are plain
        JSON-serialisable data -- the publisher copies, never aliases,
        mutable state into it.
    """

    version: int
    payload: Mapping[str, object]


_EMPTY_SNAPSHOT = StatusSnapshot(version=0, payload=MappingProxyType({}))


class StatusBoard:
    """Single-writer, lock-free-reader publication point for run status.

    The round loop (via :class:`StatusReporter`) merges updates into a
    fresh immutable :class:`StatusSnapshot` under a writer lock;
    :meth:`snapshot` is one atomic attribute read, so HTTP handlers and
    other readers never block a round and always observe a consistent
    (version, payload) pair.
    """

    def __init__(self) -> None:
        self._write_lock = threading.Lock()
        self._snapshot = _EMPTY_SNAPSHOT

    def publish(self, **updates: object) -> StatusSnapshot:
        """Merge ``updates`` into a new snapshot and publish it.

        Returns the snapshot just published.  Existing keys not named in
        ``updates`` are carried over unchanged.
        """
        with self._write_lock:
            merged = dict(self._snapshot.payload)
            merged.update(updates)
            snapshot = StatusSnapshot(
                version=self._snapshot.version + 1,
                payload=MappingProxyType(merged),
            )
            self._snapshot = snapshot
            return snapshot

    def snapshot(self) -> StatusSnapshot:
        """The currently published snapshot (lock-free)."""
        return self._snapshot


class StatusReporter(RoundCallback):
    """Round callback publishing round progress to a :class:`StatusBoard`.

    Bound to the simulation before the run (the ``bind`` seam), it
    publishes the static run facts once -- total rounds, population,
    cohort, resolved quorum -- then one snapshot per round start/end and
    evaluation.  Every ``on_round_end`` also publishes the same record a
    :class:`~repro.federated.pipeline.MetricsWriter` would write, which
    is what ``GET /metrics`` serves.
    """

    def __init__(self, board: StatusBoard) -> None:
        self.board = board
        self._fault_totals: dict[str, float] = {}
        self._required_quorum: int | None = None
        self._expected: int | None = None

    def bind(self, simulation) -> None:
        """Publish the static facts of the run the simulation is about to do."""
        expected = int(simulation.n_workers)
        min_quorum = simulation.min_quorum
        required = resolve_quorum(min_quorum, expected)
        self._expected = expected
        self._required_quorum = required
        static: dict[str, object] = {
            "phase": "starting",
            "round": None,
            "total_rounds": int(simulation.settings.total_rounds),
            "expected_cohort": expected,
            "population": int(simulation.total_population),
            "min_quorum": min_quorum,
            "required_quorum": required,
            "accuracy": None,
            "rounds_completed": 0,
        }
        if simulation.population_source is not None:
            static["cohort"] = int(simulation.cohort)
        self.board.publish(**static)

    def on_round_start(self, event: RoundStartEvent) -> None:
        """Publish the running phase and current round index."""
        self.board.publish(phase="running", round=event.round_index)

    def on_evaluation(self, event: EvaluationEvent) -> None:
        """Publish the latest evaluation accuracy."""
        self.board.publish(accuracy=float(event.accuracy))

    def on_round_end(self, event: RoundEndEvent) -> None:
        """Publish round progress, quorum margin and fault totals."""
        record = event.record()
        for key, value in record.items():
            if key.startswith("fault_"):
                self._fault_totals[key] = self._fault_totals.get(key, 0.0) + value
        survivors = event.diagnostics.get("fault_survivors")
        if survivors is None and self._expected is not None:
            survivors = float(self._expected)  # clean round: full cohort
        quorum_margin = None
        if survivors is not None and self._required_quorum is not None:
            quorum_margin = int(survivors) - self._required_quorum
        done = event.round_index == event.total_rounds - 1
        self.board.publish(
            phase="finished" if done else "running",
            rounds_completed=event.round_index + 1,
            last_survivors=None if survivors is None else int(survivors),
            quorum_margin=quorum_margin,
            fault_totals=dict(self._fault_totals),
            metrics=record,
        )


# ---------------------------------------------------------------------- #
# trace recording
# ---------------------------------------------------------------------- #
class TraceRecorder(RoundCallback):
    """Append span/event records to a JSONL trace file, thread-safely.

    A span is one JSON object per line::

        {"kind": "stage", "name": "honest_uploads", "round": 3,
         "start": 0.1824, "duration": 0.0071}

    ``start`` is seconds since the recorder was created (monotonic
    clock), so traces are self-relative and deterministic in *shape*
    while timing values naturally vary.  The recorder is discovered by
    the training loop and the execution backends through its
    :meth:`trace_span` / :meth:`trace_event` methods (duck-typed, so
    third-party recorders plug in the same way), and is bitwise-neutral
    by construction: recording reads the clock and writes to its own
    file -- nothing else.

    Parameters
    ----------
    path:
        Output JSONL file; parent directories are created lazily on the
        first record.  The file is truncated (one trace per run).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records_written = 0
        self._lock = threading.Lock()
        self._file = None
        self._closed = False
        self._epoch = time.monotonic()

    @contextmanager
    def trace_span(self, kind: str, name: str | None = None, **fields: object):
        """Record a timed span around the enclosed block."""
        start = time.monotonic()
        try:
            yield
        finally:
            self._write(kind, name, start=start,
                        duration=time.monotonic() - start, **fields)

    def trace_event(self, kind: str, name: str | None = None,
                    **fields: object) -> None:
        """Record an instantaneous event (a ``duration`` field may be
        supplied by the caller, e.g. a wire round-trip measured remotely)."""
        self._write(kind, name, start=time.monotonic(), **fields)

    def _write(self, kind: str, name: str | None, *, start: float,
               **fields: object) -> None:
        record: dict[str, object] = {"kind": kind}
        if name is not None:
            record["name"] = name
        record["start"] = round(start - self._epoch, 6)
        for key, value in fields.items():
            record[key] = round(value, 6) if isinstance(value, float) else value
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            if self._closed:
                return
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = self.path.open("w", encoding="utf-8")
            self._file.write(line + "\n")
            self._file.flush()
            self.records_written += 1

    def close(self) -> None:
        """Flush and close the trace file; later records are dropped."""
        with self._lock:
            self._closed = True
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# prometheus rendering
# ---------------------------------------------------------------------- #
_METRIC_NAME = re.compile(r"[^a-zA-Z0-9_]")


def render_prometheus(record: Mapping[str, object] | None,
                      rounds_completed: int = 0) -> str:
    """Render the latest metrics record as Prometheus text exposition.

    Every numeric field of the record becomes a ``repro_<field>`` gauge;
    ``None`` values (e.g. ``accuracy`` on a non-evaluated round) are
    skipped.  ``repro_up`` and ``repro_rounds_completed_total`` are
    always present so scrapers see the target even before round one.
    """
    lines = [
        "# TYPE repro_up gauge",
        "repro_up 1",
        "# TYPE repro_rounds_completed_total counter",
        f"repro_rounds_completed_total {int(rounds_completed)}",
    ]
    for key, value in (record or {}).items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        name = "repro_" + _METRIC_NAME.sub("_", str(key))
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# the HTTP endpoint
# ---------------------------------------------------------------------- #
class _StatusHandler(BaseHTTPRequestHandler):
    """Request handler; ``self.server.app`` is the :class:`StatusServer`."""

    server_version = "repro-status/1"
    protocol_version = "HTTP/1.1"
    timeout = 10.0  # a stalled peer must never pin a handler thread

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Log nothing (the default writes every request to stderr)."""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/healthz``, ``/status`` and ``/metrics``."""
        app: StatusServer = self.server.app
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif path == "/status":
            self._send_json(200, app.status_payload())
        elif path == "/metrics":
            wants = urllib.parse.parse_qs(query).get("format", ["json"])[0]
            if wants == "prometheus":
                self._send_text(200, app.metrics_prometheus())
            else:
                self._send_json(200, app.metrics_payload())
        else:
            self._send_json(404, {"error": f"unknown path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve ``POST /admin/<verb>[/<worker>]``."""
        app: StatusServer = self.server.app
        parts = [
            urllib.parse.unquote(part)
            for part in self.path.strip("/").split("/") if part
        ]
        if not parts or parts[0] != "admin" or len(parts) > 3:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        verb = parts[1] if len(parts) > 1 else ""
        worker = parts[2] if len(parts) > 2 else None
        try:
            payload = app.admin_action(verb, worker)
        except AdminError as error:
            self._send_json(error.status, {"error": str(error)})
        else:
            self._send_json(200, payload)

    # -- responses ----------------------------------------------------- #
    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, default=str) + "\n").encode("utf-8")
        self._send_body(status, body, "application/json")

    def _send_text(self, status: int, text: str) -> None:
        self._send_body(status, text.encode("utf-8"),
                        "text/plain; version=0.0.4")

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (ConnectionError, OSError):
            pass  # the scraper hung up; nothing to salvage


class StatusServer:
    """The coordinator's HTTP status/metrics/admin endpoint.

    Serves from a daemon thread, so it lives exactly as long as the
    coordinator process and never outlives it.  All GET paths read the
    :class:`StatusBoard`'s current snapshot (lock-free) plus, when a
    ``coordinator`` is attached, its live worker table; POST paths
    forward admin verbs to the coordinator.

    Parameters
    ----------
    board:
        The snapshot publication point the round loop writes to.
    coordinator:
        Optional admin/worker-view provider -- anything with the
        :class:`~repro.federated.service.CoordinatorServer` admin
        surface (``worker_status()``, ``pause()``, ``resume()``,
        ``drain(name)``, ``undrain(name)``, ``paused``, ``draining``).
        Without one, ``/status`` omits the worker table and every admin
        verb answers 503.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read the
        resolved one from :attr:`port`).
    """

    def __init__(
        self,
        board: StatusBoard,
        coordinator: object | None = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_STATUS_PORT,
    ) -> None:
        self.board = board
        self.coordinator = coordinator
        self._http = ThreadingHTTPServer((host, port), _StatusHandler)
        self._http.daemon_threads = True
        self._http.app = self
        self.host = self._http.server_address[0]
        self.port = self._http.server_address[1]
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="repro-status", daemon=True
        )
        self._thread.start()

    # -- payloads ------------------------------------------------------ #
    def status_payload(self) -> dict:
        """The ``/status`` document: snapshot + live worker/admin state."""
        snapshot = self.board.snapshot()
        payload: dict[str, object] = {"version": snapshot.version}
        payload.update(snapshot.payload)
        payload.pop("metrics", None)  # served by /metrics, not /status
        coordinator = self.coordinator
        if coordinator is not None:
            payload["workers"] = coordinator.worker_status()
            payload["paused"] = bool(coordinator.paused)
            payload["draining"] = sorted(coordinator.draining)
        return payload

    def metrics_payload(self) -> dict:
        """The ``/metrics`` JSON document: the latest metrics record."""
        snapshot = self.board.snapshot()
        return {
            "version": snapshot.version,
            "rounds_completed": snapshot.payload.get("rounds_completed", 0),
            "record": snapshot.payload.get("metrics"),
        }

    def metrics_prometheus(self) -> str:
        """The ``/metrics?format=prometheus`` text exposition."""
        payload = self.board.snapshot().payload
        return render_prometheus(
            payload.get("metrics"), payload.get("rounds_completed", 0)
        )

    # -- admin --------------------------------------------------------- #
    def admin_action(self, verb: str, worker: str | None) -> dict:
        """Apply one admin verb; raises :class:`AdminError` on rejection."""
        if verb not in ADMIN_VERBS:
            raise AdminError(
                f"unknown admin verb {verb!r}; expected one of "
                f"{', '.join(ADMIN_VERBS)}"
            )
        coordinator = self.coordinator
        if coordinator is None:
            raise AdminError("no coordinator attached to this endpoint",
                             status=503)
        if verb in ("pause", "resume"):
            if worker is not None:
                raise AdminError(f"{verb} takes no worker name")
            getattr(coordinator, verb)()
            return {"status": "ok", "verb": verb,
                    "paused": bool(coordinator.paused)}
        if worker is None:
            raise AdminError(f"{verb} requires a worker name "
                             f"(POST /admin/{verb}/<worker>)")
        try:
            getattr(coordinator, verb)(worker)
        except KeyError as error:
            raise AdminError(str(error.args[0]) if error.args else str(error),
                             status=404) from None
        return {"status": "ok", "verb": verb, "worker": worker,
                "draining": sorted(coordinator.draining)}

    # -- lifecycle ----------------------------------------------------- #
    def close(self) -> None:
        """Stop serving and release the port (idempotent)."""
        self._http.shutdown()
        self._http.server_close()
        self._thread.join(timeout=2.0)

    def __enter__(self) -> "StatusServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# HTTP client helpers (repro status / repro admin)
# ---------------------------------------------------------------------- #
def _request(url: str, timeout: float, data: bytes | None = None) -> dict:
    try:
        with urllib.request.urlopen(url, data=data, timeout=timeout) as reply:
            return json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        body = error.read().decode("utf-8", errors="replace")
        try:
            message = json.loads(body).get("error", body)
        except json.JSONDecodeError:
            message = body.strip() or str(error)
        raise AdminError(message, status=error.code) from None
    except (urllib.error.URLError, TimeoutError) as error:
        reason = getattr(error, "reason", error)
        raise ConnectionError(
            f"cannot reach the status endpoint at {url}: {reason}"
        ) from None


def fetch_json(host: str, port: int, path: str, timeout: float = 5.0) -> dict:
    """GET a JSON document from a :class:`StatusServer`.

    Raises :class:`ConnectionError` when the endpoint is unreachable
    (the CLI maps that onto exit code 3) and :class:`AdminError` on an
    HTTP error status.
    """
    return _request(f"http://{host}:{port}{path}", timeout)


def post_admin(host: str, port: int, verb: str, worker: str | None = None,
               timeout: float = 5.0) -> dict:
    """POST one admin verb to a :class:`StatusServer` and return its reply.

    Raises :class:`AdminError` when the coordinator rejects the verb
    (unknown worker, malformed verb) and :class:`ConnectionError` when
    the endpoint is unreachable.
    """
    path = f"/admin/{verb}"
    if worker is not None:
        path += f"/{urllib.parse.quote(worker, safe='')}"
    return _request(f"http://{host}:{port}{path}", timeout, data=b"")
