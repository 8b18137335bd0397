"""Property tests: parallel execution backends vs the serial reference.

The backend bitwise gate: for any worker count, shard size, engine
(materialized or ghost-norm), momentum, bounding mode and round count,
dispatching a pool's shards through the threaded backend (or a backend
that completes shards in adversarial orders) produces uploads **bitwise
equal** to the serial in-order loop.  Shard tasks are pure and the pool
commits their results in shard order, so parallelism must not change a
single bit -- not even under a crash schedule, where failed shards are
never committed and retried ones replay exactly.

Batch sizes are the protocol-realistic multiples of 4 (see the sharding
property test: degenerate 1-3-row stacked GEMMs hit different BLAS
micro-kernels, and so did a transposed ``G @ W.T`` below ~19 rows until
``Linear`` multiplied by a contiguous copy of ``W^T``; both are sharding
caveats, not backend ones -- serial and parallel pools here always share
the same shard partition).

The process backend is exercised by one deterministic pytest case in
``tests/federated/test_backends.py`` rather than a Hypothesis sweep:
spawning process pools per example would dominate the suite's runtime.
"""

from __future__ import annotations

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DPConfig
from repro.data.synthetic import make_classification
from repro.federated.backends import ExecutionBackend, RetryPolicy, ThreadedBackend
from repro.federated.faults import ShardFaultPlan
from repro.federated.worker import WorkerPool
from repro.nn.layers import ELU, Linear
from repro.nn.network import Sequential


def build_setup(seed, n_workers, n_features, n_classes, hidden):
    rng = np.random.default_rng(seed)
    data = make_classification(
        n_samples=12 * n_workers,
        n_features=n_features,
        n_classes=n_classes,
        nonlinear=False,
        rng=rng,
        name="prop-backend",
    )
    shards = [
        data.subset(np.arange(i * 12, (i + 1) * 12)) for i in range(n_workers)
    ]
    if hidden is None:
        model = Sequential([Linear(n_features, n_classes, rng)])
    else:
        model = Sequential(
            [Linear(n_features, hidden, rng), ELU(), Linear(hidden, n_classes, rng)]
        )
    return model, shards


def build_pool(shards, config, seed, **kwargs):
    rngs = [np.random.default_rng(seed + i) for i in range(len(shards))]
    return WorkerPool(shards, config, rngs, **kwargs)


class ShuffledCompletionBackend(ExecutionBackend):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Runs tasks in a seeded arbitrary order; reduction stays ordered."""

    def __init__(self, order_seed: int, max_workers: int = 4) -> None:
        self._order_seed = order_seed
        self._max_workers = max_workers

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def map_ordered(self, fn, items):
        items = list(items)
        results: list = [None] * len(items)
        order = np.random.default_rng(self._order_seed).permutation(len(items))
        for index in order:
            results[index] = fn(items[index])
        return results


class TestThreadedBackendBitwiseProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_workers=st.integers(2, 8),
        shard_size=st.integers(1, 8),
        batch=st.sampled_from([4, 8]),
        engine=st.sampled_from(["materialized", "ghost_norm"]),
        hidden=st.sampled_from([None, None, 5]),
        momentum=st.sampled_from([0.0, 0.3]),
        bounding=st.sampled_from(["normalize", "clip"]),
        jobs=st.integers(2, 4),
        rounds=st.integers(1, 3),
    )
    def test_threaded_pool_bitwise_identical(
        self, seed, n_workers, shard_size, batch, engine, hidden, momentum,
        bounding, jobs, rounds,
    ):
        config = DPConfig(
            batch_size=batch, sigma=0.8, momentum=momentum,
            bounding=bounding, clip_norm=0.9,
        )
        model, shards = build_setup(seed, n_workers, 6, 3, hidden)
        serial = build_pool(
            shards, config, seed + 5, engine=engine, shard_size=shard_size
        )
        backend = ThreadedBackend(max_workers=jobs)
        threaded = build_pool(
            shards, config, seed + 5, engine=engine, shard_size=shard_size,
            backend=backend,
        )
        try:
            for round_index in range(rounds):
                np.testing.assert_array_equal(
                    threaded.compute_uploads(model),
                    serial.compute_uploads(model),
                    err_msg=f"round {round_index}",
                )
        finally:
            backend.shutdown()


class TestCompletionOrderProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order_seed=st.integers(0, 2**32 - 1),
        n_workers=st.integers(2, 8),
        shard_size=st.integers(1, 4),
        batch=st.sampled_from([4, 8]),
        engine=st.sampled_from(["materialized", "ghost_norm"]),
        rounds=st.integers(1, 3),
    )
    def test_any_completion_order_bitwise_identical(
        self, seed, order_seed, n_workers, shard_size, batch, engine, rounds
    ):
        """Shard results are pinned to worker indices, not completion order."""
        config = DPConfig(batch_size=batch, sigma=1.0, momentum=0.2)
        model, shards = build_setup(seed, n_workers, 6, 3, None)
        serial = build_pool(
            shards, config, seed + 5, engine=engine, shard_size=shard_size
        )
        shuffled = build_pool(
            shards, config, seed + 5, engine=engine, shard_size=shard_size,
            backend=ShuffledCompletionBackend(order_seed),
        )
        for round_index in range(rounds):
            np.testing.assert_array_equal(
                shuffled.compute_uploads(model),
                serial.compute_uploads(model),
                err_msg=f"round {round_index}",
            )


class TestBarrierInterleavingProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_workers=st.sampled_from([4, 6, 8]),
        engine=st.sampled_from(["materialized", "ghost_norm"]),
    )
    def test_simultaneous_shards_bitwise_identical(self, seed, n_workers, engine):
        """Every shard is genuinely in flight at once (barrier-synced)."""
        config = DPConfig(batch_size=4, sigma=0.8, momentum=0.1)
        model, shards = build_setup(seed, n_workers, 6, 3, None)
        shard_size = 2
        n_shards = -(-n_workers // shard_size)

        class BarrierBackend(ThreadedBackend):
            def map_ordered(self, fn, items):
                items = list(items)
                barrier = threading.Barrier(len(items), timeout=30)

                def synced(item):
                    barrier.wait()
                    return fn(item)

                return super().map_ordered(synced, items)

        serial = build_pool(
            shards, config, seed + 5, engine=engine, shard_size=shard_size
        )
        backend = BarrierBackend(max_workers=n_shards)
        parallel = build_pool(
            shards, config, seed + 5, engine=engine, shard_size=shard_size,
            backend=backend,
        )
        try:
            for round_index in range(2):
                np.testing.assert_array_equal(
                    parallel.compute_uploads(model),
                    serial.compute_uploads(model),
                    err_msg=f"round {round_index}",
                )
        finally:
            backend.shutdown()


class TestCrashScheduleProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        order_seed=st.integers(0, 2**32 - 1),
        n_workers=st.integers(2, 8),
        shard_size=st.integers(1, 4),
        engine=st.sampled_from(["materialized", "ghost_norm"]),
        max_attempts=st.integers(1, 3),
        rounds=st.integers(1, 3),
        data=st.data(),
    )
    def test_crash_schedules_match_serial(
        self, seed, order_seed, n_workers, shard_size, engine, max_attempts,
        rounds, data,
    ):
        """Failed masks, retries, uploads and worker state match serial."""
        config = DPConfig(batch_size=4, sigma=0.8, momentum=0.3)
        model, shards = build_setup(seed, n_workers, 6, 3, None)
        policy = RetryPolicy(max_attempts=max_attempts)
        serial = build_pool(
            shards, config, seed + 5, engine=engine, shard_size=shard_size
        )
        threaded_backend = ThreadedBackend(max_workers=3)
        candidates = [
            build_pool(
                shards, config, seed + 5, engine=engine, shard_size=shard_size,
                backend=backend,
            )
            for backend in (threaded_backend, ShuffledCompletionBackend(order_seed))
        ]
        try:
            for round_index in range(rounds):
                failures = np.array(data.draw(st.lists(
                    st.integers(0, max_attempts),
                    min_size=serial.n_shards,
                    max_size=serial.n_shards,
                )))
                plan = ShardFaultPlan(failures=failures, policy=policy)
                expected = serial.compute_uploads(model, crash_plan=plan)
                report = serial.last_fault_report
                lost = np.repeat(
                    failures >= max_attempts,
                    [stop - start for start, stop in serial.shard_bounds],
                )
                if report is None:
                    assert not failures.any()
                else:
                    np.testing.assert_array_equal(report.failed_workers, lost)
                    assert report.retried == int(
                        np.minimum(failures, max_attempts - 1).sum()
                    )
                for pool in candidates:
                    np.testing.assert_array_equal(
                        pool.compute_uploads(model, crash_plan=plan), expected,
                        err_msg=f"round {round_index}",
                    )
                    other = pool.last_fault_report
                    assert (other is None) == (report is None)
                    if report is not None:
                        np.testing.assert_array_equal(
                            other.failed_workers, report.failed_workers
                        )
                        assert other.retried == report.retried
                    assert [rng.bit_generator.state for rng in pool.rngs] == [
                        rng.bit_generator.state for rng in serial.rngs
                    ]
                    np.testing.assert_array_equal(
                        pool.state.slot_momentum, serial.state.slot_momentum
                    )
        finally:
            threaded_backend.shutdown()
