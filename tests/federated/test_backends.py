"""Tests for the parallel execution backends.

Covers the backend framework (registry, ordered reduction, lifecycle),
the worker-pool routing (threaded/process == serial bitwise, including
under adversarial shard completion orders), the auto-sharding of
parallel pools and the commit model (a lost shard leaves no trace).
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.data.synthetic import make_classification
from repro.federated.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    TaskFailure,
    ThreadedBackend,
    available_backends,
    build_backend,
)
from repro.federated.engines import ENGINES, MaterializedEngine, build_engine
from repro.federated.worker import WorkerPool
from repro.registry import UnknownComponentError
from tests.helpers import make_model_and_data


def make_shards(n_workers, seed=0, n_features=8, n_classes=3, per_worker=40):
    rng = np.random.default_rng(seed)
    data = make_classification(
        n_samples=per_worker * n_workers,
        n_features=n_features,
        n_classes=n_classes,
        nonlinear=False,
        rng=rng,
        name="backend-pool",
    )
    return [
        data.subset(np.arange(i * per_worker, (i + 1) * per_worker))
        for i in range(n_workers)
    ]


def make_pool(shards, config, engine=None, shard_size=None, backend=None, seed=100):
    return WorkerPool(
        shards,
        config,
        [np.random.default_rng(seed + i) for i in range(len(shards))],
        engine=engine,
        shard_size=shard_size,
        backend=backend,
    )


class ReversedCompletionBackend(ExecutionBackend):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Test double: tasks *complete* in reverse submission order.

    The reduction stays ordered, so a correctly written caller (results
    placed by index, per-worker streams) must be unaffected.
    """

    def __init__(self, max_workers: int = 4) -> None:
        self._max_workers = max_workers

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def map_ordered(self, fn, items):
        items = list(items)
        results: list = [None] * len(items)
        for index in reversed(range(len(items))):
            results[index] = fn(items[index])
        return results


class TestBackendFramework:
    def test_builtin_backends_registered(self):
        assert {"serial", "threaded", "process"} <= set(available_backends())
        assert "threads" in BACKENDS.names(include_aliases=True)
        assert "processes" in BACKENDS.names(include_aliases=True)

    def test_serial_map_ordered(self):
        backend = SerialBackend()
        assert list(backend.map_ordered(lambda x: x * 2, [3, 1, 2])) == [6, 2, 4]
        assert backend.max_workers == 1
        assert backend.in_process

    def test_serial_accepts_and_ignores_max_workers(self):
        """Sweeps toggle only the backend name; --jobs must not explode."""
        assert SerialBackend(max_workers=4).max_workers == 1

    def test_threaded_map_preserves_submission_order(self):
        backend = ThreadedBackend(max_workers=4)
        try:
            barrier = threading.Barrier(4, timeout=10)

            def task(item):
                barrier.wait()  # all four run simultaneously
                return item * item

            assert list(backend.map_ordered(task, [1, 2, 3, 4])) == [1, 4, 9, 16]
        finally:
            backend.shutdown()

    def test_threaded_propagates_task_exception(self):
        backend = ThreadedBackend(max_workers=2)
        try:
            def task(item):
                if item == 2:
                    raise RuntimeError("boom")
                return item

            with pytest.raises(RuntimeError, match="boom"):
                list(backend.map_ordered(task, [1, 2, 3]))
        finally:
            backend.shutdown()

    def test_backend_usable_after_shutdown(self):
        backend = ThreadedBackend(max_workers=2)
        assert list(backend.map_ordered(lambda x: x + 1, [1, 2])) == [2, 3]
        backend.shutdown()
        assert list(backend.map_ordered(lambda x: x + 1, [3])) == [4]
        backend.shutdown()

    def test_empty_items(self):
        backend = ThreadedBackend(max_workers=2)
        assert list(backend.map_ordered(lambda x: x, [])) == []
        backend.shutdown()

    def test_serial_map_is_lazy(self):
        """Tasks run only as the consumer advances (streaming callers)."""
        calls = []
        results = SerialBackend().map_ordered(calls.append, [1, 2, 3])
        assert calls == []
        next(iter(results))
        assert calls == [1]

    def test_threaded_map_bounds_tasks_in_flight(self):
        """A pooled map pulls items as its window advances, not all at once."""
        backend = ThreadedBackend(max_workers=2)
        pulled = []

        def items():
            for item in range(10):
                pulled.append(item)
                yield item

        try:
            results = iter(backend.map_ordered(lambda x: x, items()))
            assert next(results) == 0
            assert len(pulled) <= backend.max_workers + 1
            assert list(results) == list(range(1, 10))
        finally:
            backend.shutdown()

    def test_rejects_nonpositive_max_workers(self):
        with pytest.raises(ValueError):
            ThreadedBackend(max_workers=0)
        with pytest.raises(ValueError):
            SerialBackend(max_workers=-1)

    def test_build_backend_default_is_serial(self):
        assert isinstance(build_backend(None), SerialBackend)
        assert isinstance(build_backend("serial"), SerialBackend)

    def test_build_backend_from_name_and_options(self):
        backend = build_backend("threaded", max_workers=3)
        assert isinstance(backend, ThreadedBackend)
        assert backend.max_workers == 3

    def test_build_backend_instance_passthrough(self):
        backend = ThreadedBackend(max_workers=2)
        assert build_backend(backend) is backend
        with pytest.raises(TypeError):
            build_backend(backend, max_workers=4)
        backend.shutdown()


class TestPoolBackends:
    """Threaded/process pools are bitwise identical to the serial path."""

    def assert_pool_matches_serial(self, backend, engine=None, rounds=3,
                                   shard_size=2, n_workers=6, batch=4, hidden=None):
        model, _ = make_model_and_data(seed=2, hidden=hidden)
        shards = make_shards(n_workers, seed=3)
        config = DPConfig(batch_size=batch, sigma=0.9, momentum=0.2)
        serial = make_pool(shards, config, engine=engine, shard_size=shard_size)
        parallel = make_pool(
            shards, config, engine=engine, shard_size=shard_size, backend=backend
        )
        try:
            for round_index in range(rounds):
                np.testing.assert_array_equal(
                    parallel.compute_uploads(model),
                    serial.compute_uploads(model),
                    err_msg=f"round {round_index}",
                )
        finally:
            parallel.backend.shutdown()

    def test_threaded_pool_bitwise_identical(self):
        self.assert_pool_matches_serial(ThreadedBackend(max_workers=3))

    def test_threaded_pool_bitwise_identical_ghost_engine(self):
        self.assert_pool_matches_serial(
            ThreadedBackend(max_workers=3), engine="ghost_norm"
        )

    @pytest.mark.parametrize("engine", ["materialized", "ghost_norm"])
    def test_threads_share_the_model_under_fast_switching(self, engine):
        """Four threads, more than the cores, compute shards on one model
        while the interpreter switches threads every microsecond: state a
        pass left on the model would change a bit."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.assert_pool_matches_serial(
                ThreadedBackend(max_workers=4), engine=engine, rounds=2,
                shard_size=1, n_workers=8, hidden=5,
            )
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("name", ["materialized", "ghost_norm"])
    def test_every_task_builds_its_own_engine(self, name):
        """Every shard task, on any thread, computes on a new engine of the
        pool's name, and the threaded uploads equal the serial ones."""
        calls = []

        @ENGINES.register("recording_demo", summary="test engine", replace=True)
        class Recording(ENGINES.get(name).builder):
            def compute_uploads(self, *args, **kwargs):
                calls.append(self)
                return super().compute_uploads(*args, **kwargs)

        model, _ = make_model_and_data(seed=2)
        shards = make_shards(6, seed=3)
        config = DPConfig(batch_size=4, sigma=0.9, momentum=0.2)
        serial = make_pool(shards, config, engine=name, shard_size=2)
        threaded = make_pool(
            shards, config, engine="recording_demo", shard_size=2,
            backend=ThreadedBackend(max_workers=2),
        )
        try:
            for round_index in range(3):
                np.testing.assert_array_equal(
                    threaded.compute_uploads(model),
                    serial.compute_uploads(model),
                    err_msg=f"round {round_index}",
                )
        finally:
            threaded.backend.shutdown()
            ENGINES.unregister("recording_demo")
        assert len(calls) == 9
        # ``calls`` keeps every engine alive, so no two share an id
        assert len({id(engine) for engine in calls}) == 9

    @pytest.mark.parametrize("backend", ["serial", "threaded", "process"])
    def test_engine_instance_is_refused(self, backend):
        """An engine is a registered name on every backend."""
        with pytest.raises(UnknownComponentError, match="unknown engine"):
            make_pool(make_shards(2), DPConfig(batch_size=4),
                      engine=MaterializedEngine(), backend=backend)

    def test_pools_sharing_threads_compute_on_their_own_models(self):
        """Shard tasks compute on the model their pool was handed, so a
        worker thread serving two pools never hands one pool the other's
        model (here of another size)."""
        linear, _ = make_model_and_data(seed=2)
        hidden, _ = make_model_and_data(seed=2, hidden=5)
        shards = make_shards(6, seed=3)
        config = DPConfig(batch_size=4, sigma=0.9, momentum=0.2)
        backend = ThreadedBackend(max_workers=2)
        pairs = [
            (model, make_pool(shards, config, shard_size=2, seed=seed),
             make_pool(shards, config, shard_size=2, backend=backend, seed=seed))
            for model, seed in ((linear, 100), (hidden, 200))
        ]
        try:
            for round_index in range(2):
                for model, serial, threaded in pairs:
                    np.testing.assert_array_equal(
                        threaded.compute_uploads(model),
                        serial.compute_uploads(model),
                        err_msg=f"round {round_index}",
                    )
        finally:
            backend.shutdown()

    def test_process_pool_bitwise_identical(self):
        self.assert_pool_matches_serial(ProcessBackend(max_workers=2), rounds=2)

    def test_process_pool_bitwise_identical_ghost_engine(self):
        self.assert_pool_matches_serial(
            ProcessBackend(max_workers=2), engine="ghost_norm", rounds=2
        )

    def test_reversed_completion_order_identical(self):
        """Shard results must not depend on which shard finishes first."""
        self.assert_pool_matches_serial(ReversedCompletionBackend())

    def test_interleaved_shard_completion(self):
        """All shards in flight simultaneously, released in reverse order."""
        model, _ = make_model_and_data(seed=5)
        shards = make_shards(8, seed=7)
        config = DPConfig(batch_size=4, sigma=1.0, momentum=0.1)

        class InterleavingBackend(ThreadedBackend):
            """Holds every task at a barrier, then staggers completion."""

            def map_ordered(self, fn, items):
                items = list(items)
                barrier = threading.Barrier(len(items), timeout=30)
                order = {id(item): rank for rank, item in enumerate(reversed(items))}
                release = threading.Condition()
                released = [0]

                def staggered(item):
                    result = fn(item)
                    barrier.wait()
                    with release:
                        release.wait_for(
                            lambda: released[0] >= order[id(item)], timeout=30
                        )
                        released[0] += 1
                        release.notify_all()
                    return result

                return super().map_ordered(staggered, items)

        backend = InterleavingBackend(max_workers=4)
        serial = make_pool(shards, config, shard_size=2)
        parallel = make_pool(shards, config, shard_size=2, backend=backend)
        try:
            for round_index in range(2):
                np.testing.assert_array_equal(
                    parallel.compute_uploads(model),
                    serial.compute_uploads(model),
                    err_msg=f"round {round_index}",
                )
        finally:
            backend.shutdown()

    def test_bounding_modes(self):
        for bounding in ("normalize", "clip"):
            model, _ = make_model_and_data(seed=4)
            shards = make_shards(4, seed=5)
            config = DPConfig(
                batch_size=4, sigma=0.5, bounding=bounding, clip_norm=0.8
            )
            serial = make_pool(shards, config, shard_size=2)
            parallel = make_pool(
                shards, config, shard_size=2,
                backend=ThreadedBackend(max_workers=2),
            )
            try:
                for _ in range(2):
                    np.testing.assert_array_equal(
                        parallel.compute_uploads(model),
                        serial.compute_uploads(model),
                    )
            finally:
                parallel.backend.shutdown()

    def test_parallel_pool_auto_shards(self):
        """Without shard_size, a parallel pool splits per backend job."""
        shards = make_shards(12)
        backend = ThreadedBackend(max_workers=4)
        pool = make_pool(shards, DPConfig(batch_size=4), backend=backend)
        assert pool.n_shards == 4
        assert pool.shard_bounds == [(0, 3), (3, 6), (6, 9), (9, 12)]
        backend.shutdown()
        serial = make_pool(shards, DPConfig(batch_size=4))
        assert serial.n_shards == 1

    def test_explicit_shard_size_wins_over_auto(self):
        shards = make_shards(12)
        backend = ThreadedBackend(max_workers=4)
        pool = make_pool(shards, DPConfig(batch_size=4), shard_size=6,
                         backend=backend)
        assert pool.n_shards == 2
        backend.shutdown()

    def test_custom_backend_through_registry(self):
        @BACKENDS.register("reversed_test", summary="test backend", replace=True)
        class RegisteredReversed(ReversedCompletionBackend):
            pass

        try:
            model, _ = make_model_and_data(seed=2)
            shards = make_shards(4, seed=3)
            config = DPConfig(batch_size=4, sigma=1.0)
            serial = make_pool(shards, config, shard_size=2)
            custom = make_pool(shards, config, shard_size=2,
                               backend="reversed_test")
            np.testing.assert_array_equal(
                custom.compute_uploads(model), serial.compute_uploads(model)
            )
        finally:
            BACKENDS.unregister("reversed_test")


class TestBackendSimulation:
    """Backend choice is invisible in end-to-end run results."""

    @pytest.mark.parametrize(
        "backend,kwargs",
        [
            ("threaded", {"max_workers": 2}),
            ("process", {"max_workers": 2}),
        ],
    )
    def test_run_experiment_identical_across_backends(self, backend, kwargs):
        from repro.experiments.presets import benchmark_preset
        from repro.experiments.runner import run_experiment

        base = benchmark_preset(
            dataset="usps_like", byzantine_fraction=0.4, attack="label_flip",
            defense="two_stage", epochs=1, scale=0.2, n_honest=4,
        )
        serial = run_experiment(base)
        parallel = run_experiment(
            base.replace(backend=backend, backend_kwargs=kwargs)
        )
        assert serial.history.as_dict() == parallel.history.as_dict()

    def test_chunked_evaluation_identical(self, monkeypatch):
        import repro.federated.server as server_module
        from repro.federated.server import Server
        from repro.defenses.mean import MeanAggregator

        model, dataset = make_model_and_data(seed=8, n_samples=600)
        server = Server(
            model=model,
            aggregator=MeanAggregator(),
            learning_rate=0.1,
            dp_config=DPConfig(batch_size=4, sigma=1.0),
            auxiliary=None,
            rng=np.random.default_rng(0),
        )
        whole = server.evaluate(dataset)
        monkeypatch.setattr(server_module, "EVAL_BATCH_SIZE", 64)
        assert server.evaluate(dataset) == whole

    def test_simulation_close_is_idempotent(self):
        from repro.experiments.presets import benchmark_preset
        from repro.experiments.runner import prepare_experiment

        config = benchmark_preset(
            epochs=1, scale=0.1, n_honest=2,
            backend="threaded", backend_kwargs={"max_workers": 2},
        )
        setup = prepare_experiment(config)
        assert isinstance(setup.simulation.backend, ThreadedBackend)
        setup.simulation.close()
        setup.simulation.close()

    def test_engines_die_with_their_task(self, monkeypatch):
        """A run's engine scratch dies with the shard task that made it:
        no engine a round built is alive after the round, before
        ``close()``, on the calling thread or on the pool's threads."""
        from repro.experiments.presets import benchmark_preset
        from repro.experiments.runner import prepare_experiment
        from repro.federated import worker

        built = []

        def recording(name):
            engine = build_engine(name)
            built.append(weakref.ref(engine))
            return engine

        monkeypatch.setattr(worker, "build_engine", recording)
        for backend in ("serial", "threaded"):
            built.clear()
            simulation = prepare_experiment(
                benchmark_preset(
                    epochs=1, scale=0.1, n_honest=2,
                    backend=backend, backend_kwargs={"max_workers": 2},
                )
            ).simulation
            try:
                simulation.run_round(0)
                gc.collect()
                assert built, backend
                assert all(engine() is None for engine in built), backend
            finally:
                simulation.close()


class LosingBackend(ExecutionBackend):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Test double: delegates to a real backend, then loses one task.

    The task still runs on the inner backend; only its result is replaced
    by a :class:`TaskFailure`, like a remote worker dying after the work
    was done.  ``lost=None`` loses nothing.
    """

    def __init__(self, inner: ExecutionBackend, lost: int | None = None) -> None:
        self.inner = inner
        self.lost = lost
        self.in_process = inner.in_process

    @property
    def max_workers(self) -> int:
        return self.inner.max_workers

    def map_ordered(self, fn, items):
        for index, result in enumerate(self.inner.map_ordered(fn, items)):
            if index == self.lost:
                result = TaskFailure(index=index, attempts=1, error="lost")
            yield result


class TestUncommittedShard:
    """A shard that ends as a TaskFailure leaves no trace on worker state."""

    @pytest.mark.parametrize("inner", ["serial", "threaded", "process"])
    def test_lost_shard_keeps_pre_round_state(self, inner):
        model, _ = make_model_and_data(seed=6)
        shards = make_shards(6, seed=8)
        config = DPConfig(batch_size=4, sigma=0.7, momentum=0.3)
        backend = LosingBackend(build_backend(inner, max_workers=2))
        pool = make_pool(shards, config, shard_size=2, backend=backend)
        reference = make_pool(shards, config, shard_size=2)
        try:
            np.testing.assert_array_equal(
                pool.compute_uploads(model), reference.compute_uploads(model)
            )
            assert pool.last_fault_report is None
            rng_states = [rng.bit_generator.state for rng in pool.rngs]
            momentum = pool.state.slot_momentum.copy()

            backend.lost = 1  # shard 1 holds workers 2 and 3
            uploads = pool.compute_uploads(model)
            expected = reference.compute_uploads(model)
        finally:
            backend.inner.shutdown()
        lost = np.array([False, False, True, True, False, False])
        np.testing.assert_array_equal(pool.last_fault_report.failed_workers, lost)
        np.testing.assert_array_equal(uploads[lost], 0.0)
        np.testing.assert_array_equal(uploads[~lost], expected[~lost])
        for index in range(6):
            state = pool.rngs[index].bit_generator.state
            if lost[index]:
                assert state == rng_states[index]
            else:
                assert state == reference.rngs[index].bit_generator.state
        np.testing.assert_array_equal(pool.state.slot_momentum[lost], momentum[lost])
        np.testing.assert_array_equal(
            pool.state.slot_momentum[~lost], reference.state.slot_momentum[~lost]
        )
