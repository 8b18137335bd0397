"""Tests for service mode: coordinator, remote backend, worker loop.

Workers run as threads inside the test process (the wire protocol does
not care), which keeps the tests fast and lets them assert on exit codes
directly; the true multi-process path is exercised by the CLI smoke
script ``benchmarks/check_service.py``.  The wire carries one task, a
worker pool's shard task, so every execution here dispatches small shard
tasks taken from a real pool (:func:`shard_job`).
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.federated import service
from repro.federated.backends import (
    BACKENDS,
    ExecutionBackend,
    RemoteBackend,
    RetryPolicy,
    TaskFailure,
    available_backends,
    build_backend,
)
from repro.federated.service import (
    CoordinatorServer,
    RemoteTaskError,
    run_worker,
)
from repro.federated.wire import (
    PROTOCOL_VERSION,
    encode_task,
    recv_message,
    send_message,
)
from repro.federated.worker import _shard_task
from tests.federated.test_backends import make_pool, make_shards
from tests.helpers import make_model_and_data

CONFIG = DPConfig(batch_size=4, sigma=0.5, momentum=0.2)


class _Recorder(ExecutionBackend):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Runs a pool's shard tasks in process, as an out-of-process backend gets them."""

    in_process = False

    def map_ordered(self, fn, items):
        # The payloads' momentum rows are views the pool's commit
        # overwrites.  Without ``out`` rows the expected results are fresh
        # arrays, and a coordinator fills only rows a test hands it.
        self.items = [
            (index, replace(payload, momentum=payload.momentum.copy(), out=None))
            for index, payload in items
        ]
        self.fn = fn
        self.results = [fn(item) for item in self.items]
        return self.results


def shard_job(count, seed=0, policy=None, crashes=(), hidden=None):
    """``(fn, items, expected)``: ``count`` one-worker shard tasks of a pool.

    ``fn`` and ``items`` are what the pool hands an out-of-process
    backend's ``map_ordered``; ``expected`` their results, computed in
    process.  ``policy`` and ``crashes`` rebuild ``fn`` with that retry
    loop (the expected results are unchanged: retries replay bitwise).
    ``hidden`` gives the model a hidden layer of that width.
    """
    model, _ = make_model_and_data(seed=seed, hidden=hidden)
    recorder = _Recorder()
    pool = make_pool(make_shards(count, seed=seed + 1), CONFIG, shard_size=1,
                     backend=recorder)
    pool.compute_uploads(model)
    fn = recorder.fn
    if policy is not None or crashes:
        fn = recorder.resilient(_shard_task, policy or RetryPolicy(), crashes=crashes)
    return fn, recorder.items, recorder.results


def assert_results(results, expected):
    """Shard results equal: uploads bitwise, generator states exactly."""
    assert len(results) == len(expected)
    for result, reference in zip(results, expected):
        assert not isinstance(result, TaskFailure), result
        uploads, states = result
        np.testing.assert_array_equal(uploads, reference[0])
        assert states == reference[1]


def inconsistent(item):
    """``item`` with one feature row too few: the worker must refuse it."""
    index, payload = item
    return index, replace(payload, features=payload.features[:-1])


def _silence(line):
    pass


def start_worker_thread(port, name="w", **kwargs):
    """Run ``run_worker`` on a daemon thread; returns (thread, codes)."""
    codes: list[int] = []

    def target():
        codes.append(run_worker(
            "127.0.0.1", port, name=name, log=_silence, **kwargs
        ))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, codes


def fake_handshake(port, name="fake", protocol=PROTOCOL_VERSION):
    """Connect and register like a worker, but stay hand-driven."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    send_message(sock, {"type": "hello", "worker": name, "protocol": protocol})
    welcome, _ = recv_message(sock)
    assert welcome["type"] == "welcome"
    return sock


def result_frame(task_id, uploads, states):
    """The bytes of a ``result`` frame, built by hand so a test can cut it."""
    body = json.dumps({
        "type": "result", "task_id": task_id, "states": states,
        "buffers": [{"dtype": "<f8", "shape": list(uploads.shape),
                     "nbytes": uploads.nbytes}],
    }).encode()
    return struct.pack(">I", len(body)) + body + uploads.astype("<f8").tobytes()


def record_execute(monkeypatch, matrix):
    """Record, per result of every ``execute``, whether its uploads are
    rows of ``matrix`` (``None`` for a :class:`TaskFailure`)."""
    shared: list[bool | None] = []
    original = CoordinatorServer.execute

    def execute(server, fn, items, policy):
        results = original(server, fn, items, policy)
        shared.extend(
            None if isinstance(result, TaskFailure)
            else np.shares_memory(result[0], matrix)
            for result in results
        )
        return results

    monkeypatch.setattr(CoordinatorServer, "execute", execute)
    return shared


def wait_until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def wait_for_eof(sock, timeout=5.0):
    """Whether the peer closed ``sock`` within ``timeout`` seconds."""
    sock.settimeout(timeout)
    try:
        while sock.recv(1 << 16):
            pass
    except socket.timeout:
        return False
    except OSError:
        pass
    return True


@pytest.fixture()
def backend():
    instance = RemoteBackend(worker_timeout=20.0)
    yield instance
    instance.shutdown()


class TestRegistryAndConfig:
    def test_remote_backend_registered(self):
        assert "remote" in available_backends()
        assert "service" in BACKENDS.names(include_aliases=True)

    def test_build_through_registry(self):
        backend = build_backend("remote", worker_timeout=5.0, transport_attempts=2)
        assert isinstance(backend, RemoteBackend)
        assert not backend.in_process
        assert backend.transport_policy.max_attempts == 2
        backend.shutdown()

    def test_resilient_task_travels_as_data_without_trace_hook(self, backend):
        """The retry loop reaches the remote worker as header fields."""
        backend.set_tracer(object())
        task = backend.resilient(_shard_task, RetryPolicy(max_attempts=2), crashes=(1,))
        assert task.on_retry is None
        _, items, _ = shard_job(1)
        header, _ = encode_task(task, items[0])
        assert header["crashes"] == 1
        assert header["retry"]["max_attempts"] == 2

    def test_coordinator_parameter_validation(self):
        with pytest.raises(ValueError):
            CoordinatorServer(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            CoordinatorServer(heartbeat_interval=1.0, heartbeat_timeout=0.5)

    def test_coordinator_rejects_nonpositive_worker_timeout(self):
        with pytest.raises(ValueError, match="worker_timeout"):
            CoordinatorServer(worker_timeout=0.0)

    @pytest.mark.parametrize(
        ("option", "value"),
        [("max_workers", 0), ("transport_attempts", 0), ("transport_backoff", -0.1)],
    )
    def test_remote_backend_rejects_bad_settings(self, option, value):
        """``repro serve`` hands --workers and --transport-retries to these
        keywords as given; the backend refuses bad values before it
        listens."""
        with pytest.raises(ValueError):
            RemoteBackend(**{option: value})


class TestOrderedExecution:
    def test_map_ordered_single_worker(self, backend):
        fn, items, expected = shard_job(3)
        thread, codes = start_worker_thread(backend.port)
        try:
            assert backend.server.wait_for_workers(1, timeout=10.0) == 1
            assert_results(backend.map_ordered(fn, items), expected)
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)
        assert codes == [0]  # clean shutdown notification

    def test_map_ordered_many_items_few_workers(self, backend):
        fn, items, expected = shard_job(20)
        threads = [start_worker_thread(backend.port, name=f"w{i}")
                   for i in range(3)]
        try:
            backend.server.wait_for_workers(3, timeout=10.0)
            assert_results(backend.map_ordered(fn, items), expected)
            # The backend is reusable round after round.
            assert_results(backend.map_ordered(fn, items[5:6]), expected[5:6])
        finally:
            backend.shutdown()
        for thread, codes in threads:
            thread.join(timeout=10.0)
            assert codes == [0]

    def test_idle_worker_holds_no_upload_it_sent(self, backend, monkeypatch):
        """Once a result is sent, the worker drops its upload arrays
        instead of keeping them until the next task frame arrives."""
        fn, items, expected = shard_job(2)
        sent = []
        answer = service._answer_task

        def recording_answer(task_id, message, buffers):
            reply, out = answer(task_id, message, buffers)
            sent.extend(weakref.ref(array) for array in out)
            return reply, out

        monkeypatch.setattr(service, "_answer_task", recording_answer)
        thread, codes = start_worker_thread(backend.port)
        try:
            assert backend.server.wait_for_workers(1, timeout=10.0) == 1
            assert_results(backend.map_ordered(fn, items), expected)
            assert len(sent) == 2
            wait_until(lambda: all(ref() is None for ref in sent), timeout=1.0)
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)
        assert codes == [0]

    def test_map_ordered_empty_items(self, backend):
        # Must not touch the network at all (no workers connected).
        fn, _, _ = shard_job(1)
        assert backend.map_ordered(fn, []) == []

    def test_map_ordered_rejects_any_other_function(self, backend):
        """The wire carries no code: TypeError before a frame is sent."""
        _, items, _ = shard_job(1)
        sock = fake_handshake(backend.port)
        try:
            backend.server.wait_for_workers(1, timeout=10.0)
            for fn in (repr, backend.resilient(repr, RetryPolicy())):
                with pytest.raises(TypeError, match="shard task"):
                    backend.map_ordered(fn, items)
            sock.settimeout(0.3)
            with pytest.raises(socket.timeout):
                recv_message(sock)
        finally:
            sock.close()

    def test_worker_exception_raises_remote_task_error(self, backend):
        fn, items, expected = shard_job(1)
        thread, _ = start_worker_thread(backend.port)
        try:
            backend.server.wait_for_workers(1, timeout=10.0)
            with pytest.raises(RemoteTaskError, match="features must be"):
                backend.map_ordered(fn, [inconsistent(items[0])])
            # A failed round must not wedge the next one.
            assert_results(backend.map_ordered(fn, items), expected)
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)

    def test_execute_is_not_reentrant(self, backend):
        fn, items, expected = shard_job(1)
        server = backend.server
        results = []
        # The throttle holds the task in flight while the second call runs.
        thread, _ = start_worker_thread(backend.port, throttle=0.5)
        try:
            server.wait_for_workers(1, timeout=10.0)
            inner = threading.Thread(
                target=lambda: results.append(backend.map_ordered(fn, items)),
                daemon=True,
            )
            inner.start()
            deadline = time.monotonic() + 5.0
            while server._execution is None and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(RuntimeError, match="not reentrant"):
                server.execute(fn, items, RetryPolicy())
            inner.join(timeout=10.0)
            assert len(results) == 1
            assert_results(results[0], expected)
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)


class TestFailureSemantics:
    def test_dead_worker_degrades_to_ordered_task_failure(self):
        """A worker dying mid-task exhausts the budget -> TaskFailure slot."""
        fn, items, _ = shard_job(1)
        backend = RemoteBackend(transport_attempts=1, worker_timeout=20.0)
        try:
            port = backend.port
            sock = fake_handshake(port)
            backend.server.wait_for_workers(1, timeout=10.0)

            def die_on_task():
                recv_message(sock)  # the dispatched task
                sock.close()  # kill -9, as the coordinator sees it

            killer = threading.Thread(target=die_on_task, daemon=True)
            killer.start()
            # No surviving worker needed: with a budget of one attempt
            # the slot degrades immediately and the round completes.
            results = backend.map_ordered(fn, items)
            killer.join(timeout=10.0)
            assert len(results) == 1
            assert isinstance(results[0], TaskFailure)
            assert results[0].index == 0
            assert results[0].attempts == 1
            assert "connection lost" in results[0].error
        finally:
            backend.shutdown()

    def test_redispatch_recovers_with_retry_budget(self):
        """With attempts left, the lost task reruns on a surviving worker."""
        fn, items, expected = shard_job(2)
        backend = RemoteBackend(
            transport_attempts=3, transport_backoff=0.01, worker_timeout=20.0
        )
        try:
            port = backend.port
            sock = fake_handshake(port)
            thread, _ = start_worker_thread(port)
            backend.server.wait_for_workers(2, timeout=10.0)

            def die_on_task():
                recv_message(sock)
                sock.close()

            killer = threading.Thread(target=die_on_task, daemon=True)
            killer.start()
            results = backend.map_ordered(fn, items)
            killer.join(timeout=10.0)
            assert_results(results, expected)  # no TaskFailure: the retry recovered
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)

    @pytest.mark.parametrize("answer", ["wrong shape", "extra buffer", "wrong states"])
    def test_bad_result_drops_the_link_and_retries(self, answer):
        """A malformed result is never committed: the task reruns elsewhere."""
        fn, items, expected = shard_job(1)
        backend = RemoteBackend(
            transport_attempts=3, transport_backoff=0.01, worker_timeout=20.0
        )
        try:
            sock = fake_handshake(backend.port, name="liar")
            backend.server.wait_for_workers(1, timeout=10.0)
            outcome = []

            def lie_on_task():
                message, _ = recv_message(sock)
                uploads, states = expected[0]
                header, buffers = {"states": states}, [uploads]
                if answer == "wrong shape":
                    buffers = [uploads[:, :-1]]
                elif answer == "extra buffer":
                    buffers = [uploads, uploads]
                else:
                    header = {"states": states * 2}
                send_message(sock, {"type": "result", "task_id": message["task_id"],
                                    **header}, buffers)
                outcome.append(wait_for_eof(sock))
                # Only now does an honest worker join to take the retry.
                outcome.append(start_worker_thread(backend.port, name="honest"))

            liar = threading.Thread(target=lie_on_task, daemon=True)
            liar.start()
            results = backend.map_ordered(fn, items)
            liar.join(timeout=10.0)
            assert outcome[0] is True  # the coordinator hung up on the liar
            assert_results(results, expected)
        finally:
            backend.shutdown()
            sock.close()
        outcome[1][0].join(timeout=10.0)

    def test_heartbeat_silence_drops_the_link(self):
        server = CoordinatorServer(
            heartbeat_interval=0.05, heartbeat_timeout=0.3, worker_timeout=5.0
        )
        try:
            sock = fake_handshake(server.port)  # registers, never heartbeats
            assert server.wait_for_workers(1, timeout=5.0) == 1
            deadline = time.monotonic() + 5.0
            while server.n_workers and time.monotonic() < deadline:
                time.sleep(0.05)
            assert server.n_workers == 0
            sock.close()
        finally:
            server.close()

    def test_no_workers_raises_connection_error(self):
        fn, items, _ = shard_job(2)
        backend = RemoteBackend(worker_timeout=0.5)
        try:
            started = time.monotonic()
            with pytest.raises(ConnectionError, match="no workers connected"):
                backend.map_ordered(fn, items)
            # One timeout, not the first dispatch's wait plus another.
            assert time.monotonic() - started < 1.0
        finally:
            backend.shutdown()

    def test_worker_gives_up_when_no_coordinator(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        code = run_worker(
            "127.0.0.1", dead_port, reconnect_timeout=0.2, log=_silence
        )
        assert code == 1

    def test_worker_reconnects_to_restarted_coordinator(self):
        """A coordinator crash + rebind: the worker re-registers and serves."""
        fn, items, expected = shard_job(1)
        first = CoordinatorServer(port=0, worker_timeout=20.0)
        port = first.port
        thread, codes = start_worker_thread(port, reconnect_timeout=30.0)
        try:
            assert first.wait_for_workers(1, timeout=10.0) == 1
            first.close(notify_workers=False)  # what a crash looks like
            second = CoordinatorServer(port=port, worker_timeout=20.0)
            try:
                assert second.wait_for_workers(1, timeout=15.0) == 1
                assert_results(second.execute(fn, items, RetryPolicy()), expected)
            finally:
                second.close()
        finally:
            if not first._closed:
                first.close()
        thread.join(timeout=10.0)
        assert codes == [0]

    def test_backend_restarts_after_shutdown(self):
        """shutdown() must leave the backend reusable on its fixed port."""
        fn, items, expected = shard_job(2)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        backend = RemoteBackend(port=port, worker_timeout=20.0)
        try:
            thread, codes = start_worker_thread(port)
            backend.server.wait_for_workers(1, timeout=10.0)
            assert_results(backend.map_ordered(fn, items[:1]), expected[:1])
            backend.shutdown()
            thread.join(timeout=10.0)
            assert codes == [0]
            thread, codes = start_worker_thread(port)
            backend.server.wait_for_workers(1, timeout=10.0)
            assert_results(backend.map_ordered(fn, items[1:]), expected[1:])
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)


class TestProtocolVersion:
    """Both ends refuse a peer of another protocol version at the handshake."""

    def test_coordinator_turns_away_another_version(self, capsys):
        stale = PROTOCOL_VERSION - 1
        server = CoordinatorServer(worker_timeout=5.0)
        try:
            sock = fake_handshake(server.port, name="stale", protocol=stale)
            assert wait_for_eof(sock)  # closed before it became a link
            sock.close()
            assert server.n_workers == 0
            assert server.worker_status() == []
        finally:
            server.close()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rejected worker 'stale'" in captured.err
        assert (
            f"protocol {stale}, this coordinator speaks protocol {PROTOCOL_VERSION}"
            in captured.err
        )

    def test_worker_exits_on_another_version(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            listener.settimeout(10.0)
            port = listener.getsockname()[1]
            lines: list[str] = []
            codes: list[int] = []
            worker = threading.Thread(
                target=lambda: codes.append(run_worker(
                    "127.0.0.1", port, reconnect_timeout=2.0, log=lines.append
                )),
                daemon=True,
            )
            worker.start()
            peer, _ = listener.accept()
            with peer:
                peer.settimeout(10.0)
                hello, _ = recv_message(peer)
                assert hello["protocol"] == PROTOCOL_VERSION
                send_message(peer, {
                    "type": "welcome", "protocol": PROTOCOL_VERSION - 1,
                    "heartbeat_interval": 0.5,
                })
                worker.join(timeout=10.0)
        assert codes == [1]
        assert any(
            f"protocol {PROTOCOL_VERSION - 1}" in line
            and f"protocol {PROTOCOL_VERSION}" in line
            for line in lines
        ), lines


class TestRemotePools:
    """The remote backend keeps the bitwise-identity guarantee."""

    def test_remote_pool_bitwise_identical_to_serial(self):
        model, _ = make_model_and_data(seed=2)
        shards = make_shards(6, seed=3)
        config = DPConfig(batch_size=4, sigma=0.9, momentum=0.2)
        serial = make_pool(shards, config, shard_size=2)
        backend = RemoteBackend(max_workers=2, worker_timeout=20.0)
        remote = make_pool(shards, config, shard_size=2, backend=backend)
        threads = [start_worker_thread(backend.port, name=f"w{i}")
                   for i in range(2)]
        try:
            backend.server.wait_for_workers(2, timeout=10.0)
            for round_index in range(3):
                np.testing.assert_array_equal(
                    remote.compute_uploads(model),
                    serial.compute_uploads(model),
                    err_msg=f"round {round_index}",
                )
        finally:
            backend.shutdown()
        for thread, codes in threads:
            thread.join(timeout=10.0)
            assert codes == [0]

    def test_run_experiment_identical_across_remote_and_serial(self):
        from repro.experiments.presets import benchmark_preset
        from repro.experiments.runner import run_experiment

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        base = benchmark_preset(
            dataset="usps_like", byzantine_fraction=0.4, attack="label_flip",
            defense="two_stage", epochs=1, scale=0.2, n_honest=4,
        )
        serial = run_experiment(base)
        threads = [
            start_worker_thread(port, name=f"w{i}", reconnect_timeout=30.0)
            for i in range(2)
        ]
        remote = run_experiment(base.replace(
            backend="remote",
            backend_kwargs={
                "port": port, "max_workers": 2, "worker_timeout": 30.0,
            },
        ))
        for thread, codes in threads:
            thread.join(timeout=15.0)
            assert codes == [0]
        assert serial.history.as_dict() == remote.history.as_dict()

    def test_first_round_waits_for_a_late_worker(self):
        """A fresh coordinator's first dispatch waits for ``max_workers``
        registrations: a worker joining after round 0 began still gets
        round-0 tasks, and the run closes both workers cleanly."""
        from repro.experiments.presets import benchmark_preset
        from repro.experiments.runner import run_experiment
        from repro.federated.pipeline import RoundCallback

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        config = benchmark_preset(
            dataset="usps_like", epochs=1, scale=0.2, n_honest=4,
            backend="remote",
            backend_kwargs={"port": port, "max_workers": 2, "worker_timeout": 20.0},
        )
        workers = [start_worker_thread(port, name="early", reconnect_timeout=10.0)]
        servers = []
        dispatched = {}

        def on_prepared(setup):
            # Start listening, and let the early worker register first.
            servers.append(setup.simulation.backend.server)
            assert servers[0].wait_for_workers(1, timeout=10.0) == 1

        class LateWorker(RoundCallback):
            def on_round_start(self, event):
                if event.round_index == 0:
                    timer = threading.Timer(0.3, lambda: workers.append(
                        start_worker_thread(port, name="late", reconnect_timeout=10.0)
                    ))
                    timer.daemon = True
                    timer.start()

            def on_round_end(self, event):
                if event.round_index == 0:
                    dispatched.update(
                        (row["name"], row["dispatched"])
                        for row in servers[0].worker_status()
                    )

        run_experiment(config, callbacks=[LateWorker()], on_prepared=on_prepared)
        assert dispatched.get("early", 0) > 0, dispatched
        assert dispatched.get("late", 0) > 0, dispatched
        for thread, codes in workers:
            thread.join(timeout=15.0)
            assert codes == [0]

    def test_lost_worker_mid_training_degrades_not_crashes(self):
        """Transport exhaustion surfaces as lost workers, not an exception."""
        from repro.federated.worker import WorkerPool

        model, _ = make_model_and_data(seed=4)
        shards = make_shards(4, seed=5)
        backend = RemoteBackend(
            transport_attempts=1, worker_timeout=20.0
        )
        pool = WorkerPool(
            shards,
            DPConfig(batch_size=4, sigma=0.5),
            [np.random.default_rng(100 + i) for i in range(4)],
            shard_size=2,
            backend=backend,
        )
        try:
            port = backend.port
            sock = fake_handshake(port)
            backend.server.wait_for_workers(1, timeout=10.0)

            def die_on_task():
                recv_message(sock)
                sock.close()

            killer = threading.Thread(target=die_on_task, daemon=True)
            killer.start()
            thread, _ = start_worker_thread(port)
            uploads = pool.compute_uploads(model)
            killer.join(timeout=10.0)
            report = pool.last_fault_report
            assert report is not None
            lost = report.failed_workers
            assert lost.sum() == 2  # one shard of two workers dropped out
            np.testing.assert_array_equal(uploads[lost], 0.0)
            assert np.all(uploads[~lost] != 0.0)
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)

    def test_engine_instance_is_refused(self):
        from repro.federated.engines import GhostNormEngine
        from repro.registry import UnknownComponentError

        with pytest.raises(UnknownComponentError, match="unknown engine"):
            make_pool(make_shards(2), CONFIG, engine=GhostNormEngine(),
                      backend=RemoteBackend())


class TestRoundMatrixReceive:
    """The coordinator reads results into the shard's rows of the round
    matrix, under the claim rules of ``CoordinatorServer._claim_rows``."""

    def test_served_round_commits_rows_it_received_and_keeps_no_frame(
        self, monkeypatch
    ):
        model, _ = make_model_and_data(seed=2)
        shards = make_shards(6, seed=3)
        config = DPConfig(batch_size=4, sigma=0.9, momentum=0.2)
        serial = make_pool(shards, config, shard_size=2)
        backend = RemoteBackend(max_workers=2, worker_timeout=20.0)
        remote = make_pool(shards, config, shard_size=2, backend=backend)
        matrix = np.empty((6, model.num_parameters))
        shared = record_execute(monkeypatch, matrix)
        received = []
        original = service.recv_message

        def recv_message(sock, into=None):
            message, arrays = original(sock, into)
            if threading.current_thread().name == "repro-coordinator-link":
                received.extend(weakref.ref(array) for array in arrays)
            return message, arrays

        monkeypatch.setattr(service, "recv_message", recv_message)
        threads = [start_worker_thread(backend.port, name=f"w{i}") for i in range(2)]
        try:
            backend.server.wait_for_workers(2, timeout=10.0)
            for round_index in range(2):
                matrix[...] = np.nan
                shared.clear()
                received.clear()
                assert remote.compute_uploads(model, out=matrix) is matrix
                assert shared == [True, True, True], f"round {round_index}"
                assert len(received) == 3
                assert all(ref() is None for ref in received), f"round {round_index}"
                np.testing.assert_array_equal(
                    matrix, serial.compute_uploads(model), err_msg=f"round {round_index}"
                )
        finally:
            backend.shutdown()
        for thread, codes in threads:
            thread.join(timeout=10.0)
            assert codes == [0]

    def test_rows_never_leave_the_process(self):
        """A payload keeps its rows for the coordinator; neither its task
        frame nor a pickled copy (the process backend's) carries them."""
        fn, items, expected = shard_job(1)
        index, payload = items[0]
        payload = replace(payload, out=np.zeros_like(expected[0][0]))
        _, buffers = encode_task(fn, (index, payload))
        assert not any(np.shares_memory(buffer, payload.out) for buffer in buffers)
        copy = pickle.loads(pickle.dumps(payload))
        assert copy.out is None and payload.out is not None
        np.testing.assert_array_equal(copy.features, payload.features)
        assert copy.rng_states == payload.rng_states

    @pytest.mark.parametrize("answerer", ["holder", "other link"])
    def test_only_the_link_holding_the_task_writes_its_rows(self, answerer):
        fn, items, expected = shard_job(1)
        uploads, states = expected[0]
        rows = np.zeros_like(uploads)
        item = (items[0][0], replace(items[0][1], out=rows))
        server = CoordinatorServer(worker_timeout=20.0)
        holder = fake_handshake(server.port, name="holder")
        other = None
        try:
            assert server.wait_for_workers(1, timeout=10.0) == 1
            results = []
            runner = threading.Thread(
                target=lambda: results.append(server.execute(fn, [item], RetryPolicy())),
                daemon=True,
            )
            runner.start()
            task, _ = recv_message(holder)
            other = fake_handshake(server.port, name="other")
            assert server.wait_for_workers(2, timeout=10.0) == 2
            send_message(other if answerer == "other link" else holder,
                         {"type": "result", "task_id": task["task_id"], "states": states},
                         [uploads])
            runner.join(timeout=10.0)
            [[(received, received_states)]] = results
            np.testing.assert_array_equal(received, uploads)
            assert received_states == states
            if answerer == "holder":
                assert np.shares_memory(received, rows)
            else:  # first result wins, but the rows stay untouched
                assert not np.shares_memory(received, rows)
                np.testing.assert_array_equal(rows, 0.0)
        finally:
            for sock in (holder, other):
                if sock is not None:
                    sock.close()
            server.close()

    @pytest.mark.parametrize("attempts", [3, 1])
    def test_receive_dying_mid_buffer_is_retried_or_zeroed(self, monkeypatch, attempts):
        """A liar declares exactly its shard's upload, sends half of it and
        hangs up: the retry rewrites the rows in full, or the commit zeroes
        them when the task has no attempt left."""
        model, _ = make_model_and_data(seed=4)
        shards = make_shards(4, seed=5)
        config = DPConfig(batch_size=4, sigma=0.5)
        serial = make_pool(shards, config, shard_size=2)
        backend = RemoteBackend(transport_attempts=attempts, transport_backoff=0.01,
                                worker_timeout=20.0)
        remote = make_pool(shards, config, shard_size=2, backend=backend)
        matrix = np.empty((4, model.num_parameters))
        shared = record_execute(monkeypatch, matrix)
        liar = fake_handshake(backend.port, name="liar")
        honest = []

        def cut_short():
            message, buffers = recv_message(liar)
            task = message["task"]
            garbage = np.full((len(task["states"]), buffers[0].size), 1e300)
            frame = result_frame(message["task_id"], garbage, task["states"])
            liar.sendall(frame[: len(frame) - garbage.nbytes // 2])
            liar.close()
            honest.append(start_worker_thread(backend.port, name="honest"))

        try:
            backend.server.wait_for_workers(1, timeout=10.0)
            cutter = threading.Thread(target=cut_short, daemon=True)
            cutter.start()
            remote.compute_uploads(model, out=matrix)
            cutter.join(timeout=10.0)
            reference = serial.compute_uploads(model)
            if attempts == 1:
                assert shared == [None, True]
                assert remote.last_fault_report.failed_workers.tolist() == [
                    True, True, False, False
                ]
                np.testing.assert_array_equal(matrix[:2], 0.0)
                np.testing.assert_array_equal(matrix[2:], reference[2:])
            else:
                assert shared == [True, True]
                np.testing.assert_array_equal(matrix, reference)
        finally:
            backend.shutdown()
        for thread, _ in honest:
            thread.join(timeout=10.0)

    def test_straggler_racing_its_redispatch_resolves_first_result_wins(self):
        """The straggler's late answer wins while the re-dispatch is still
        writing the rows, and execute returns only once that receive ends."""
        fn, items, expected = shard_job(1)
        uploads, states = expected[0]
        rows = np.zeros_like(uploads)
        item = (items[0][0], replace(items[0][1], out=rows))
        server = CoordinatorServer(worker_timeout=20.0)
        straggler = fake_handshake(server.port, name="straggler")
        redispatch = None
        try:
            server.wait_for_workers(1, timeout=10.0)
            results = []
            policy = RetryPolicy(max_attempts=3, backoff_base=0.01, timeout=0.2)
            runner = threading.Thread(
                target=lambda: results.append(server.execute(fn, [item], policy)),
                daemon=True,
            )
            runner.start()
            first, _ = recv_message(straggler)
            server.drain("straggler")  # so the re-dispatch goes elsewhere
            redispatch = fake_handshake(server.port, name="redispatch")
            second, _ = recv_message(redispatch)  # past the 0.2 s deadline
            assert second["task_id"] == first["task_id"]
            frame = result_frame(second["task_id"], uploads, states)
            cut = len(frame) - uploads.nbytes // 2
            redispatch.sendall(frame[:cut])
            wait_until(rows.any)  # the re-dispatch's receive is writing the rows
            send_message(straggler, {"type": "result", "task_id": first["task_id"],
                                     "states": states}, [uploads])
            time.sleep(0.3)
            assert runner.is_alive(), "execute returned while its rows were written"
            redispatch.sendall(frame[cut:])
            runner.join(timeout=10.0)
            [[(received, received_states)]] = results
            assert not np.shares_memory(received, rows)  # the straggler won
            np.testing.assert_array_equal(received, uploads)
            assert received_states == states
            np.testing.assert_array_equal(rows, uploads)
        finally:
            for sock in (straggler, redispatch):
                if sock is not None:
                    sock.close()
            server.close()
