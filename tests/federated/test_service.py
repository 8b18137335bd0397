"""Tests for service mode: coordinator, remote backend, worker loop.

Workers run as threads inside the test process (the wire protocol does
not care), which keeps the tests fast and lets them assert on exit codes
directly; the true multi-process path is exercised by the CLI smoke
script ``benchmarks/check_service.py``.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.config import DPConfig, ServiceConfig
from repro.federated.backends import (
    BACKENDS,
    RetryPolicy,
    TaskFailure,
    available_backends,
    build_backend,
)
from repro.federated.service import (
    CoordinatorServer,
    RemoteBackend,
    RemoteTaskError,
    run_worker,
)
from repro.federated.wire import (
    PROTOCOL_VERSION,
    recv_message,
    send_message,
)
from tests.federated.test_backends import make_pool, make_shards
from tests.helpers import make_model_and_data


def _square(item):
    return item * item


def _boom(item):
    raise ValueError(f"boom {item}")


#: Gate for _wait_for_release; tasks are pickled by reference, so a
#: module-level function + event pair is shared with the worker threads.
_RELEASE = threading.Event()


def _wait_for_release(item):
    _RELEASE.wait(10.0)
    return item


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


def fake_handshake(port, name="fake"):
    """Connect and register like a worker, but stay hand-driven."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
    send_message(sock, {
        "type": "hello", "worker": name, "protocol": PROTOCOL_VERSION,
    })
    welcome = recv_message(sock)
    assert welcome["type"] == "welcome"
    return sock


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
        from repro.core.config import BackendConfig

        backend = build_backend(BackendConfig(
            name="remote",
            options={"worker_timeout": 5.0, "transport_attempts": 2},
        ))
        assert isinstance(backend, RemoteBackend)
        assert not backend.in_process
        assert backend.transport_policy.max_attempts == 2
        backend.shutdown()

    def test_service_config_validation(self):
        config = ServiceConfig()
        assert config.port == 7733
        with pytest.raises(ValueError):
            ServiceConfig(port=70000)
        with pytest.raises(ValueError):
            ServiceConfig(expected_workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(heartbeat_timeout=0.1, heartbeat_interval=0.5)
        with pytest.raises(ValueError):
            ServiceConfig(transport_attempts=0)

    def test_resilient_task_is_picklable_without_trace_hook(self, backend):
        """The retry loop travels to the remote worker, so it must pickle."""
        backend.set_tracer(object())
        task = backend.resilient(_square, RetryPolicy(max_attempts=2), crashes=(1,))
        assert task.on_retry is None
        assert pickle.loads(pickle.dumps(task))((0, 3)) == 9

    def test_coordinator_parameter_validation(self):
        with pytest.raises(ValueError):
            CoordinatorServer(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            CoordinatorServer(heartbeat_interval=1.0, heartbeat_timeout=0.5)


class TestOrderedExecution:
    def test_map_ordered_single_worker(self, backend):
        thread, codes = start_worker_thread(backend.port)
        try:
            assert backend.server.wait_for_workers(1, timeout=10.0) == 1
            assert backend.map_ordered(_square, [3, 1, 2]) == [9, 1, 4]
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)
        assert codes == [0]  # clean shutdown notification

    def test_map_ordered_many_items_few_workers(self, backend):
        threads = [start_worker_thread(backend.port, name=f"w{i}")
                   for i in range(3)]
        try:
            backend.server.wait_for_workers(3, timeout=10.0)
            items = list(range(20))
            assert backend.map_ordered(_square, items) == [i * i for i in items]
            # The backend is reusable round after round.
            assert backend.map_ordered(_square, [5]) == [25]
        finally:
            backend.shutdown()
        for thread, codes in threads:
            thread.join(timeout=10.0)
            assert codes == [0]

    def test_map_ordered_empty_items(self, backend):
        # Must not touch the network at all (no workers connected).
        assert backend.map_ordered(_square, []) == []

    def test_worker_exception_raises_remote_task_error(self, backend):
        thread, _ = start_worker_thread(backend.port)
        try:
            backend.server.wait_for_workers(1, timeout=10.0)
            with pytest.raises(RemoteTaskError, match="boom 2"):
                backend.map_ordered(_boom, [2])
            # A failed round must not wedge the next one.
            assert backend.map_ordered(_square, [4]) == [16]
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)

    def test_execute_is_not_reentrant(self, backend):
        server = backend.server
        results = []
        _RELEASE.clear()
        thread, _ = start_worker_thread(backend.port)
        try:
            server.wait_for_workers(1, timeout=10.0)
            inner = threading.Thread(
                target=lambda: results.append(
                    backend.map_ordered(_wait_for_release, [1])
                ),
                daemon=True,
            )
            inner.start()
            deadline = time.monotonic() + 5.0
            while server._execution is None and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(RuntimeError, match="not reentrant"):
                server.execute(_square, [1], RetryPolicy())
            _RELEASE.set()
            inner.join(timeout=10.0)
            assert results == [[1]]
        finally:
            _RELEASE.set()
            backend.shutdown()
        thread.join(timeout=10.0)


class TestFailureSemantics:
    def test_dead_worker_degrades_to_ordered_task_failure(self):
        """A worker dying mid-task exhausts the budget -> TaskFailure slot."""
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
            results = backend.map_ordered(_square, [7])
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
            results = backend.map_ordered(_square, [3, 4])
            killer.join(timeout=10.0)
            assert results == [9, 16]  # no TaskFailure: the retry recovered
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)

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
        backend = RemoteBackend(worker_timeout=0.3)
        try:
            with pytest.raises(ConnectionError, match="no workers connected"):
                backend.map_ordered(_square, [1, 2])
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
        first = CoordinatorServer(port=0, worker_timeout=20.0)
        port = first.port
        thread, codes = start_worker_thread(port, reconnect_timeout=30.0)
        try:
            assert first.wait_for_workers(1, timeout=10.0) == 1
            first.close(notify_workers=False)  # what a crash looks like
            second = CoordinatorServer(port=port, worker_timeout=20.0)
            try:
                assert second.wait_for_workers(1, timeout=15.0) == 1
                results = second.execute(_square, [6], RetryPolicy())
                assert results == [36]
            finally:
                second.close()
        finally:
            if not first._closed:
                first.close()
        thread.join(timeout=10.0)
        assert codes == [0]

    def test_backend_restarts_after_shutdown(self):
        """shutdown() must leave the backend reusable on its fixed port."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        backend = RemoteBackend(port=port, worker_timeout=20.0)
        try:
            thread, codes = start_worker_thread(port)
            backend.server.wait_for_workers(1, timeout=10.0)
            assert backend.map_ordered(_square, [2]) == [4]
            backend.shutdown()
            thread.join(timeout=10.0)
            assert codes == [0]
            thread, codes = start_worker_thread(port)
            backend.server.wait_for_workers(1, timeout=10.0)
            assert backend.map_ordered(_square, [3]) == [9]
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)


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
            assert report.crashed_shards == 1
            lost = report.failed_workers
            assert lost.sum() == 2  # one shard of two workers dropped out
            np.testing.assert_array_equal(uploads[lost], 0.0)
            assert np.all(uploads[~lost] != 0.0)
        finally:
            backend.shutdown()
        thread.join(timeout=10.0)
