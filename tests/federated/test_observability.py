"""Tests for the coordinator observability layer.

Covers the versioned snapshot board (lock-free reads under concurrent
publication), the HTTP status/metrics/admin endpoint, the admin verbs'
effect on coordinator dispatch (pause, drain), the JSONL trace recorder
(including its asserted bitwise-neutrality through the CLI), and the
concurrent reader/writer behaviour of the metrics stream the ``/metrics``
route is built on.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.cli import main
from repro.federated.backends import RetryPolicy, SerialBackend, TaskFailure
from repro.federated.observability import (
    AdminError,
    StatusBoard,
    StatusReporter,
    StatusServer,
    StatusSnapshot,
    TraceRecorder,
    fetch_json,
    post_admin,
    render_prometheus,
)
from repro.federated.pipeline import MetricsWriter, RoundEndEvent, read_metrics
from repro.federated.service import CoordinatorServer
from tests.federated.test_service import assert_results, shard_job, start_worker_thread


def _square(item):
    return item * item


FAST_ARGUMENTS = [
    "--dataset", "usps_like", "--byzantine", "0.5", "--epochs", "1", "--seed", "1",
]


# ---------------------------------------------------------------------- #
# the snapshot board
# ---------------------------------------------------------------------- #
class TestStatusBoard:
    def test_starts_at_version_zero(self):
        board = StatusBoard()
        snapshot = board.snapshot()
        assert snapshot.version == 0
        assert dict(snapshot.payload) == {}

    def test_publish_merges_and_bumps_version(self):
        board = StatusBoard()
        board.publish(round=1, phase="running")
        board.publish(round=2)
        snapshot = board.snapshot()
        assert snapshot.version == 2
        assert snapshot.payload["round"] == 2
        assert snapshot.payload["phase"] == "running"  # carried over

    def test_snapshots_are_immutable(self):
        board = StatusBoard()
        board.publish(round=1)
        snapshot = board.snapshot()
        with pytest.raises(TypeError):
            snapshot.payload["round"] = 99
        assert isinstance(snapshot, StatusSnapshot)

    def test_old_snapshots_unaffected_by_new_publishes(self):
        board = StatusBoard()
        board.publish(round=1)
        old = board.snapshot()
        board.publish(round=2)
        assert old.payload["round"] == 1

    def test_concurrent_publishers_never_lose_versions(self):
        """N writers x M publishes -> exactly N*M version bumps, and a
        reader polling concurrently only ever sees consistent pairs."""
        board = StatusBoard()
        writers, per_writer = 4, 50
        seen: list[tuple[int, int]] = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                snapshot = board.snapshot()
                value = snapshot.payload.get("value")
                if value is not None:
                    seen.append((snapshot.version, value))

        def write_loop(writer):
            for i in range(per_writer):
                board.publish(value=writer * per_writer + i)

        reader = threading.Thread(target=read_loop, daemon=True)
        reader.start()
        threads = [
            threading.Thread(target=write_loop, args=(w,)) for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        reader.join(timeout=5.0)
        assert board.snapshot().version == writers * per_writer
        # Versions observed by the reader are monotonically non-decreasing.
        versions = [version for version, _ in seen]
        assert versions == sorted(versions)


# ---------------------------------------------------------------------- #
# the trace recorder
# ---------------------------------------------------------------------- #
class TestTraceRecorder:
    def test_span_and_event_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as tracer:
            with tracer.trace_span("stage", "honest_uploads", round=3):
                pass
            tracer.trace_event("retry", "task_lost", index=1, attempts=2)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        span, event = records
        assert span["kind"] == "stage"
        assert span["name"] == "honest_uploads"
        assert span["round"] == 3
        assert span["duration"] >= 0.0
        assert event["kind"] == "retry"
        assert "duration" not in event
        assert tracer.records_written == 2

    def test_records_are_sorted_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as tracer:
            tracer.trace_event("e", "n", zebra=1, alpha=2)
        line = path.read_text().splitlines()[0]
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_span_written_even_when_body_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = TraceRecorder(path)
        with pytest.raises(RuntimeError):
            with tracer.trace_span("stage", "boom"):
                raise RuntimeError("boom")
        tracer.close()
        assert len(path.read_text().splitlines()) == 1

    def test_close_is_idempotent_and_drops_late_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = TraceRecorder(path)
        tracer.trace_event("e", "one")
        tracer.close()
        tracer.close()
        tracer.trace_event("e", "after-close")  # silently dropped
        assert len(path.read_text().splitlines()) == 1
        assert tracer.records_written == 1

    def test_thread_safe_interleaved_writes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = TraceRecorder(path)

        def emit(thread_index):
            for i in range(100):
                tracer.trace_event("e", f"t{thread_index}", i=i)

        threads = [
            threading.Thread(target=emit, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 400
        # Every line is intact JSON: no torn interleavings.
        for line in lines:
            json.loads(line)


class TestBackendTracing:
    def test_serial_backend_emits_task_spans(self, tmp_path):
        tracer = TraceRecorder(tmp_path / "t.jsonl")
        backend = SerialBackend()
        backend.set_tracer(tracer)
        assert list(backend.map_ordered(_square, [1, 2, 3])) == [1, 4, 9]
        tracer.close()
        records = [
            json.loads(line)
            for line in (tmp_path / "t.jsonl").read_text().splitlines()
        ]
        assert [r["kind"] for r in records] == ["task"] * 3

    def test_tracing_does_not_change_results(self):
        plain = list(SerialBackend().map_ordered(_square, range(10)))
        traced_backend = SerialBackend()
        traced_backend.set_tracer(TraceRecorder("/dev/null"))
        assert list(traced_backend.map_ordered(_square, range(10))) == plain

    def test_resilient_retries_emit_events(self, tmp_path):
        tracer = TraceRecorder(tmp_path / "t.jsonl")
        backend = SerialBackend()
        backend.set_tracer(tracer)
        from repro.federated.backends import TransientTaskError

        calls = {"n": 0}

        def flaky(item):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TransientTaskError("first try fails")
            return item

        task = backend.resilient(flaky, RetryPolicy(max_attempts=3))
        assert list(backend.map_ordered(task, enumerate([7]))) == [7]
        tracer.close()
        kinds = [
            json.loads(line)["kind"]
            for line in (tmp_path / "t.jsonl").read_text().splitlines()
        ]
        assert "retry" in kinds


# ---------------------------------------------------------------------- #
# metrics stream under concurrent read/write (the /metrics pattern)
# ---------------------------------------------------------------------- #
class TestMetricsConcurrency:
    def test_reader_polls_while_writer_appends(self, tmp_path):
        """read_metrics on a live file only ever sees complete records."""
        path = tmp_path / "metrics.jsonl"
        writer = MetricsWriter(path)
        total = 40
        done = threading.Event()
        observed: list[int] = []

        def poll():
            while not done.is_set():
                if path.exists():
                    records = read_metrics(path)
                    observed.append(len(records))
                    for record in records:
                        assert set(record) >= {"round", "total_rounds", "accuracy"}
            observed.append(len(read_metrics(path)))

        reader = threading.Thread(target=poll, daemon=True)
        reader.start()
        for round_index in range(total):
            writer.on_round_end(RoundEndEvent(
                round_index=round_index,
                total_rounds=total,
                diagnostics={"fault_crashed": 0.0},
                accuracy=0.5,
            ))
        writer.close()
        done.set()
        reader.join(timeout=5.0)
        assert observed[-1] == total
        # Counts only grow: a poll never observes a rollback.
        assert observed == sorted(observed)

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.on_round_end(RoundEndEvent(
                round_index=0, total_rounds=2, diagnostics={}, accuracy=0.1
            ))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"round": 1, "tot')  # killed mid-write
        records = read_metrics(path)
        assert len(records) == 1
        assert records[0]["round"] == 0

    def test_metrics_line_and_status_record_are_one_record(self, tmp_path):
        event = RoundEndEvent(
            round_index=3, total_rounds=9, accuracy=None,
            diagnostics={"fault_survivors": 7, "byzantine_selected_fraction": 0.25},
        )
        expected = {
            "round": 3, "total_rounds": 9, "accuracy": None,
            "byzantine_selected_fraction": 0.25, "fault_survivors": 7.0,
        }
        assert list(event.record().items()) == list(expected.items())
        path = tmp_path / "metrics.jsonl"
        with MetricsWriter(path) as writer:
            writer.on_round_end(event)
        assert path.read_text() == json.dumps(expected) + "\n"
        board = StatusBoard()
        StatusReporter(board).on_round_end(event)
        assert board.snapshot().payload["metrics"] == expected
        assert board.snapshot().payload["fault_totals"] == {"fault_survivors": 7.0}


class TestStatusReporterRun:
    @pytest.mark.parametrize("population", [None, 300], ids=["classic", "population"])
    def test_run_binds_the_reporter_to_the_simulation(self, population):
        """``run`` hands the reporter the simulation it runs, whose static
        facts it publishes; only a population run has a cohort."""
        from repro.experiments.presets import benchmark_preset
        from repro.experiments.runner import prepare_experiment
        from repro.federated.faults import resolve_quorum

        sampling = {} if population is None else {"population": population, "cohort": 8}
        config = benchmark_preset(
            dataset="usps_like", scale=0.2, epochs=1, byzantine_fraction=0.25,
            attack="gaussian", min_quorum=0.5, seed=1, **sampling,
        )
        simulation = prepare_experiment(config).simulation
        board = StatusBoard()
        try:
            simulation.run([StatusReporter(board)])
        finally:
            simulation.close()
        payload = board.snapshot().payload
        n_workers = simulation.n_workers
        assert payload["expected_cohort"] == n_workers
        assert payload["population"] == simulation.total_population
        assert payload["required_quorum"] == resolve_quorum(0.5, n_workers)
        assert payload["rounds_completed"] == simulation.settings.total_rounds
        if population is None:
            assert "cohort" not in payload
            assert payload["population"] == n_workers
        else:
            assert payload["cohort"] == 8
            assert payload["population"] == population + simulation.n_byzantine


# ---------------------------------------------------------------------- #
# coordinator admin surface
# ---------------------------------------------------------------------- #
@pytest.fixture
def coordinator():
    server = CoordinatorServer(worker_timeout=20.0)
    yield server
    server.close()


class TestCoordinatorAdmin:
    def test_drain_requires_connected_worker(self, coordinator):
        with pytest.raises(KeyError, match="nope"):
            coordinator.drain("nope")

    def test_undrain_requires_draining_worker(self, coordinator):
        with pytest.raises(KeyError, match="not draining"):
            coordinator.undrain("idle")

    def test_worker_status_tracks_churn(self, coordinator):
        assert coordinator.worker_status() == []
        thread_a, codes_a = start_worker_thread(coordinator.port, name="a")
        thread_b, codes_b = start_worker_thread(coordinator.port, name="b")
        assert coordinator.wait_for_workers(2, timeout=10.0) == 2
        rows = coordinator.worker_status()
        assert [row["name"] for row in rows] == ["a", "b"]
        assert all(not row["busy"] and not row["draining"] for row in rows)
        coordinator.close()
        thread_a.join(timeout=10.0)
        thread_b.join(timeout=10.0)
        assert codes_a == [0] and codes_b == [0]
        assert coordinator.worker_status() == []

    def test_drained_worker_gets_no_new_tasks(self, coordinator):
        fn, items, expected = shard_job(12)
        thread_a, _ = start_worker_thread(coordinator.port, name="a")
        thread_b, _ = start_worker_thread(coordinator.port, name="b")
        assert coordinator.wait_for_workers(2, timeout=10.0) == 2
        coordinator.drain("b")
        assert coordinator.draining == {"b"}
        results = coordinator.execute(fn, items, RetryPolicy())
        assert_results(results, expected)
        rows = {row["name"]: row for row in coordinator.worker_status()}
        assert rows["b"]["dispatched"] == 0
        assert rows["b"]["draining"]
        assert rows["a"]["dispatched"] == 12
        # Whole frames: every task's buffers, not just its headers.
        buffer_bytes = sum(array.nbytes for item in items for array in (
            item[1].parameters, item[1].features, item[1].labels, item[1].momentum
        ))
        assert rows["a"]["bytes_sent"] > buffer_bytes
        coordinator.undrain("b")
        assert coordinator.draining == set()
        coordinator.execute(fn, items[:1], RetryPolicy())
        coordinator.close()
        thread_a.join(timeout=10.0)
        thread_b.join(timeout=10.0)

    def test_drain_is_idempotent(self, coordinator):
        thread, _ = start_worker_thread(coordinator.port, name="a")
        assert coordinator.wait_for_workers(1, timeout=10.0) == 1
        coordinator.drain("a")
        coordinator.drain("a")
        assert coordinator.draining == {"a"}
        coordinator.close()
        thread.join(timeout=10.0)

    def test_pause_stops_dispatch_until_resume(self, coordinator):
        fn, items, expected = shard_job(3)
        thread, _ = start_worker_thread(coordinator.port, name="a")
        assert coordinator.wait_for_workers(1, timeout=10.0) == 1
        coordinator.pause()
        assert coordinator.paused
        outcome: list = []
        runner = threading.Thread(
            target=lambda: outcome.append(
                coordinator.execute(fn, items, RetryPolicy())
            ),
            daemon=True,
        )
        runner.start()
        time.sleep(0.4)
        assert not outcome  # paused: nothing dispatched, nothing finished
        assert all(
            row["dispatched"] == 0 for row in coordinator.worker_status()
        )
        coordinator.resume()
        assert not coordinator.paused
        runner.join(timeout=10.0)
        assert len(outcome) == 1
        assert_results(outcome[0], expected)
        coordinator.close()
        thread.join(timeout=10.0)

    def test_all_drained_trips_a_distinguishing_starvation_error(self):
        fn, items, _ = shard_job(2)
        server = CoordinatorServer(worker_timeout=0.5)
        try:
            thread, _ = start_worker_thread(server.port, name="a")
            assert server.wait_for_workers(1, timeout=10.0) == 1
            server.drain("a")
            with pytest.raises(ConnectionError, match="draining"):
                server.execute(fn, items, RetryPolicy())
        finally:
            server.close()
            thread.join(timeout=10.0)


# ---------------------------------------------------------------------- #
# the HTTP endpoint against a live coordinator
# ---------------------------------------------------------------------- #
class TestStatusServer:
    @pytest.fixture
    def stack(self, coordinator):
        board = StatusBoard()
        board.publish(phase="running", round=4, rounds_completed=4,
                      metrics={"round": 3, "accuracy": 0.75})
        server = StatusServer(board, coordinator, port=0)
        yield board, server, coordinator
        server.close()

    def test_healthz(self, stack):
        _, server, _ = stack
        assert fetch_json("127.0.0.1", server.port, "/healthz") == {"status": "ok"}

    def test_status_merges_board_and_worker_table(self, stack):
        _, server, coordinator = stack
        thread, _ = start_worker_thread(coordinator.port, name="w0")
        assert coordinator.wait_for_workers(1, timeout=10.0) == 1
        payload = fetch_json("127.0.0.1", server.port, "/status")
        assert payload["phase"] == "running"
        assert payload["round"] == 4
        assert payload["paused"] is False
        assert payload["draining"] == []
        assert [row["name"] for row in payload["workers"]] == ["w0"]
        assert "metrics" not in payload  # /metrics serves the record
        coordinator.close()
        thread.join(timeout=10.0)

    def test_metrics_json_and_prometheus(self, stack):
        _, server, _ = stack
        payload = fetch_json("127.0.0.1", server.port, "/metrics")
        assert payload["record"] == {"round": 3, "accuracy": 0.75}
        import urllib.request

        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/metrics?format=prometheus",
            timeout=5.0,
        ) as reply:
            text = reply.read().decode()
        assert "repro_up 1" in text
        assert "repro_accuracy 0.75" in text
        assert "repro_rounds_completed_total 4" in text

    def test_unknown_path_is_404(self, stack):
        _, server, _ = stack
        with pytest.raises(AdminError) as excinfo:
            fetch_json("127.0.0.1", server.port, "/nope")
        assert excinfo.value.status == 404

    def test_admin_pause_resume_roundtrip(self, stack):
        _, server, coordinator = stack
        reply = post_admin("127.0.0.1", server.port, "pause")
        assert reply["paused"] is True
        assert coordinator.paused
        reply = post_admin("127.0.0.1", server.port, "resume")
        assert reply["paused"] is False
        assert not coordinator.paused

    def test_admin_drain_roundtrip(self, stack):
        _, server, coordinator = stack
        thread, _ = start_worker_thread(coordinator.port, name="w0")
        assert coordinator.wait_for_workers(1, timeout=10.0) == 1
        reply = post_admin("127.0.0.1", server.port, "drain", "w0")
        assert reply["draining"] == ["w0"]
        assert coordinator.draining == {"w0"}
        post_admin("127.0.0.1", server.port, "undrain", "w0")
        assert coordinator.draining == set()
        coordinator.close()
        thread.join(timeout=10.0)

    def test_admin_unknown_worker_is_404(self, stack):
        _, server, _ = stack
        with pytest.raises(AdminError) as excinfo:
            post_admin("127.0.0.1", server.port, "drain", "ghost")
        assert excinfo.value.status == 404

    def test_admin_unknown_verb_is_400(self, stack):
        _, server, _ = stack
        with pytest.raises(AdminError) as excinfo:
            post_admin("127.0.0.1", server.port, "explode")
        assert excinfo.value.status == 400

    def test_admin_without_coordinator_is_503(self):
        server = StatusServer(StatusBoard(), None, port=0)
        try:
            with pytest.raises(AdminError) as excinfo:
                post_admin("127.0.0.1", server.port, "pause")
            assert excinfo.value.status == 503
        finally:
            server.close()

    def test_unreachable_endpoint_raises_connection_error(self):
        # Maps to CLI exit code 3, like every other connection failure.
        probe = StatusServer(StatusBoard(), None, port=0)
        port = probe.port
        probe.close()
        with pytest.raises(ConnectionError):
            fetch_json("127.0.0.1", port, "/status", timeout=1.0)


class TestPrometheusRendering:
    def test_skips_non_numeric_values(self):
        text = render_prometheus(
            {"accuracy": None, "note": "hi", "ok": True, "round": 2}, 3
        )
        assert "repro_round 2" in text
        assert "accuracy" not in text
        assert "note" not in text
        assert "repro_ok" not in text  # booleans are not gauges

    def test_handles_missing_record(self):
        text = render_prometheus(None, 0)
        assert "repro_up 1" in text


# ---------------------------------------------------------------------- #
# bitwise neutrality through the CLI (the asserted gate)
# ---------------------------------------------------------------------- #
class TestTraceNeutrality:
    def test_run_output_and_metrics_identical_with_tracing(
        self, tmp_path, capsys
    ):
        """--trace-out changes the trace file and nothing else."""
        plain_metrics = tmp_path / "plain.jsonl"
        assert main([
            "run", *FAST_ARGUMENTS, "--attack", "gaussian",
            "--metrics-out", str(plain_metrics),
        ]) == 0
        plain_output = capsys.readouterr().out

        traced_metrics = tmp_path / "traced.jsonl"
        trace = tmp_path / "trace.jsonl"
        assert main([
            "run", *FAST_ARGUMENTS, "--attack", "gaussian",
            "--metrics-out", str(traced_metrics),
            "--trace-out", str(trace),
        ]) == 0
        traced_output = capsys.readouterr().out

        strip = lambda text: [  # noqa: E731 - tiny local normaliser
            line for line in text.splitlines()
            if "per-round metrics written to" not in line
        ]
        assert strip(traced_output) == strip(plain_output)
        assert traced_metrics.read_bytes() == plain_metrics.read_bytes()
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert records  # tracing actually recorded spans
        kinds = {record["kind"] for record in records}
        assert {"round", "stage"} <= kinds


class TestRemoteExecutionTracing:
    def test_wire_and_status_seams_on_a_live_execution(self, tmp_path):
        """Low-level check that execute() emits wire round-trip events."""
        fn, items, expected = shard_job(2)
        tracer = TraceRecorder(tmp_path / "t.jsonl")
        server = CoordinatorServer(worker_timeout=20.0)
        try:
            server.set_tracer(tracer)
            thread, _ = start_worker_thread(server.port, name="w0")
            assert server.wait_for_workers(1, timeout=10.0) == 1
            results = server.execute(fn, items, RetryPolicy())
            assert_results(results, expected)
            assert not any(
                isinstance(result, TaskFailure) for result in results
            )
        finally:
            server.close()
            thread.join(timeout=10.0)
        tracer.close()
        records = [
            json.loads(line)
            for line in (tmp_path / "t.jsonl").read_text().splitlines()
        ]
        trips = [r for r in records if r["kind"] == "wire"]
        assert len(trips) == 2
        assert all(r["worker"] == "w0" for r in trips)
        uploads = expected[0][0]
        assert all(r["result_bytes"] == uploads.nbytes for r in trips)
