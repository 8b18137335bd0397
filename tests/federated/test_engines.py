"""Client compute engines: registry, equivalence, sharding, memory bounds."""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.core.dp_protocol import bounding_factors
from repro.data.synthetic import make_classification
from repro.federated import engines
from repro.federated.backends import ThreadedBackend
from repro.federated.engines import (
    ENGINES,
    GhostNormEngine,
    MaterializedEngine,
    available_engines,
    build_engine,
    pairwise_gradient_gram,
)
from repro.federated.worker import WorkerPool
from repro.nn.layers import Linear
from repro.nn.models import build_model
from repro.nn.network import Sequential
from repro.privacy.mechanisms import clip_gradients, normalize_gradients
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
        name="engines",
    )
    return [
        data.subset(np.arange(i * per_worker, (i + 1) * per_worker))
        for i in range(n_workers)
    ]


def make_pool(shards, config, seed_base=100, **kwargs):
    return WorkerPool(
        shards,
        config,
        [np.random.default_rng(seed_base + i) for i in range(len(shards))],
        **kwargs,
    )


class TestEngineRegistry:
    def test_builtin_engines_registered(self):
        assert "materialized" in available_engines()
        assert "ghost_norm" in available_engines()

    def test_aliases_resolve(self):
        assert isinstance(build_engine("stacked"), MaterializedEngine)
        assert isinstance(build_engine("ghost"), GhostNormEngine)

    def test_none_builds_default(self):
        assert isinstance(build_engine(None), MaterializedEngine)

    def test_instance_is_refused(self):
        with pytest.raises(UnknownComponentError, match="unknown engine"):
            build_engine(GhostNormEngine())

    def test_name_with_kwargs_rejected(self):
        with pytest.raises(TypeError):
            build_engine("materialized", foo=1)

    def test_registered_in_public_registry(self):
        assert ENGINES.names() == sorted(available_engines())

    def test_building_an_engine_leaves_no_cycle(self):
        """Every shard task builds its engine, so a build must free what
        it allocates without the cyclic collector: reading an engine
        class's signature left a ~14 KiB cycle per build on Python 3.11,
        which added ~1 MiB to a ``paper_train`` run's peak RSS."""
        gc.collect()
        gc.disable()
        try:
            for name in available_engines():
                build_engine(name)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGhostNormEquivalence:
    @pytest.mark.parametrize("hidden", [None, 6], ids=["linear", "mlp"])
    @pytest.mark.parametrize(
        "config",
        [
            DPConfig(batch_size=8, sigma=0.9, momentum=0.3),
            DPConfig(batch_size=4, sigma=0.5, momentum=0.0),
            DPConfig(batch_size=4, sigma=0.7, momentum=0.2, bounding="clip", clip_norm=0.8),
            DPConfig(batch_size=8, sigma=0.0, momentum=0.1),
        ],
        ids=["normalize", "no-momentum", "clip", "no-noise"],
    )
    def test_uploads_match_materialized(self, hidden, config):
        """The tolerance gate: ghost == materialized to rtol 1e-9 over rounds."""
        model, _ = make_model_and_data(seed=2, hidden=hidden)
        shards = make_shards(5, seed=3)
        materialized = make_pool(shards, config, engine="materialized")
        ghost = make_pool(shards, config, engine="ghost_norm")
        for round_index in range(4):
            np.testing.assert_allclose(
                ghost.compute_uploads(model),
                materialized.compute_uploads(model),
                rtol=1e-9,
                atol=1e-12,
                err_msg=f"round {round_index}",
            )

    def test_never_materializes_per_example_gradients(self, monkeypatch):
        """The ghost path must not fall back to the (n*b, d) gradient path."""
        model, _ = make_model_and_data(seed=1)
        shards = make_shards(4, seed=4)
        pool = make_pool(shards, DPConfig(batch_size=8, sigma=1.0), engine="ghost_norm")

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("ghost engine materialised per-example gradients")

        model.per_example_gradients = forbidden
        monkeypatch.setattr(engines, "expand_grad_factors", forbidden)
        uploads = pool.compute_uploads(model)
        assert uploads.shape == (4, model.num_parameters)
        assert pool.engine_name == "ghost_norm"

    @pytest.mark.parametrize("engine", ["ghost_norm", "materialized"])
    def test_rejects_layers_off_the_linear_convention(self, engine):
        """A parametrised layer the (X, Delta) factors cannot describe fails
        loudly in both engines."""

        class ScaledLinear(Linear):
            def __init__(self, *args):
                super().__init__(*args)
                self.parameters = [*self.parameters, np.ones(1)]

        model = Sequential([ScaledLinear(8, 3, np.random.default_rng(0))])
        shards = make_shards(2, seed=5)
        pool = make_pool(shards, DPConfig(batch_size=4, sigma=1.0), engine=engine)
        with pytest.raises(RuntimeError, match="ScaledLinear does not follow"):
            pool.compute_uploads(model)

    def test_momentum_state_identical_across_engines(self):
        """Line 11 overwrite: both engines leave the same rank-1 state."""
        model, _ = make_model_and_data(seed=7)
        config = DPConfig(batch_size=4, sigma=0.6, momentum=0.4)
        shards = make_shards(3, seed=8)
        materialized = make_pool(shards, config, engine="materialized")
        ghost = make_pool(shards, config, engine="ghost_norm")
        for _ in range(3):
            materialized.compute_uploads(model)
            ghost.compute_uploads(model)
        np.testing.assert_allclose(
            ghost.state.slot_momentum,
            materialized.state.slot_momentum,
            rtol=1e-9,
            atol=1e-12,
        )


class TestPairwiseGradientGram:
    def test_gram_diagonal_matches_materialized_norms(self):
        """diag((X X^T + 1) (.) (D D^T)) == per-example squared norms."""
        model, _ = make_model_and_data(seed=3, hidden=5)
        shards = make_shards(3, seed=6)
        batch = 4
        rng = np.random.default_rng(0)
        features = np.concatenate(
            [shard.features[rng.integers(0, len(shard), batch)] for shard in shards]
        )
        labels = np.concatenate(
            [shard.labels[rng.integers(0, len(shard), batch)] for shard in shards]
        )
        gram = pairwise_gradient_gram(model, features, labels, n_workers=3)
        _, per_example = model.per_example_gradients(features, labels)
        expected = np.einsum("rd,rd->r", per_example, per_example).reshape(3, batch)
        np.testing.assert_allclose(
            np.diagonal(gram, axis1=1, axis2=2), expected, rtol=1e-9, atol=1e-12
        )

    def test_gram_off_diagonal_matches_pairwise_products(self):
        model, _ = make_model_and_data(seed=9)
        shards = make_shards(2, seed=10)
        batch = 3
        rng = np.random.default_rng(1)
        features = np.concatenate(
            [shard.features[rng.integers(0, len(shard), batch)] for shard in shards]
        )
        labels = np.concatenate(
            [shard.labels[rng.integers(0, len(shard), batch)] for shard in shards]
        )
        gram = pairwise_gradient_gram(model, features, labels, n_workers=2)
        _, per_example = model.per_example_gradients(features, labels)
        stacked = per_example.reshape(2, batch, -1)
        expected = np.matmul(stacked, stacked.swapaxes(1, 2))
        np.testing.assert_allclose(gram, expected, rtol=1e-9, atol=1e-12)


class TestBoundingFactors:
    def test_normalize_matches_mechanism(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(6, 9))
        vectors[2] = 0.0  # zero slot: normalise maps it to zero
        config = DPConfig(batch_size=6, bounding="normalize")
        norms = np.linalg.norm(vectors, axis=-1)
        scaled = vectors * bounding_factors(norms, config)[:, None]
        np.testing.assert_allclose(
            scaled, normalize_gradients(vectors), rtol=0, atol=0
        )

    def test_clip_matches_mechanism(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(5, 7)) * 3.0
        config = DPConfig(batch_size=5, bounding="clip", clip_norm=1.3)
        norms = np.linalg.norm(vectors, axis=-1)
        scaled = vectors * bounding_factors(norms, config)[:, None]
        np.testing.assert_allclose(
            scaled, clip_gradients(vectors, 1.3), rtol=1e-15, atol=0
        )


class TestShardedPool:
    @pytest.mark.parametrize("engine", ["materialized", "ghost_norm"])
    @pytest.mark.parametrize("shard_size", [1, 2, 3, 10])
    def test_sharded_bitwise_identical_to_unsharded(self, engine, shard_size):
        """The regression gate: sharding never changes a single bit."""
        model, _ = make_model_and_data(seed=2)
        shards = make_shards(7, seed=3)
        config = DPConfig(batch_size=4, sigma=0.8, momentum=0.2)
        unsharded = make_pool(shards, config, engine=engine)
        sharded = make_pool(shards, config, engine=engine, shard_size=shard_size)
        for round_index in range(3):
            np.testing.assert_array_equal(
                sharded.compute_uploads(model),
                unsharded.compute_uploads(model),
                err_msg=f"round {round_index}",
            )

    def test_shard_bounds_cover_pool(self):
        shards = make_shards(7)
        pool = make_pool(shards, DPConfig(batch_size=4), shard_size=3)
        assert pool.n_shards == 3
        assert pool.shard_bounds == [(0, 3), (3, 6), (6, 7)]

    def test_unsharded_is_one_shard(self):
        shards = make_shards(5)
        pool = make_pool(shards, DPConfig(batch_size=4))
        assert pool.n_shards == 1
        assert pool.shard_bounds == [(0, 5)]

    def test_rejects_nonpositive_shard_size(self):
        shards = make_shards(2)
        with pytest.raises(ValueError):
            make_pool(shards, DPConfig(batch_size=4), shard_size=0)

    def test_sampling_scratch_bounded_by_shard(self):
        """Peak pool scratch is sized by the shard, not the population: at
        d = 6570 and b_c = 4 a group holds four workers, so a whole pool of
        eight expands four workers at once and shards of two expand two."""
        model = build_model("mlp_medium", 64, 10, rng=1)
        config = DPConfig(batch_size=4, sigma=1.0)
        shards = make_shards(8, seed=4, n_features=64, n_classes=10, per_worker=50)
        expansion = config.batch_size * model.num_parameters * 8  # one worker's
        peaks = {}
        for shard_size in (2, None):
            pool = make_pool(shards, config, shard_size=shard_size)
            pool.compute_uploads(model)
            tracemalloc.start()
            try:
                pool.compute_uploads(model)
                peaks[shard_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[None] - peaks[2] > 1.5 * expansion

    def test_shard_size_argument_used(self):
        shards = make_shards(6)
        pool = make_pool(
            shards,
            DPConfig(batch_size=4),
            engine="materialized",
            shard_size=2,
        )
        assert pool.n_shards == 3

    def test_no_concatenated_data_copy(self):
        """The pool no longer holds a second copy of its shard data."""
        shards = make_shards(4)
        pool = make_pool(shards, DPConfig(batch_size=4))
        assert not hasattr(pool, "_all_features")
        assert not hasattr(pool, "_all_labels")


def paper_shape_pool(seed_base=100):
    """``mlp_medium`` on 64 features and 10 classes (d = 6570), 20 workers, b_c = 16."""
    model = build_model("mlp_medium", 64, 10, rng=1)
    shards = make_shards(20, seed=4, n_features=64, n_classes=10, per_worker=50)
    config = DPConfig(batch_size=16, sigma=1.0, momentum=0.1)
    return model, make_pool(shards, config, seed_base=seed_base)


def first_call_peak(monkeypatch, group_bytes: int) -> int:
    """``tracemalloc`` peak of a fresh paper-shape pool's first call, with
    ``group_bytes`` as the materialized engine's group budget."""
    model, pool = paper_shape_pool()
    with monkeypatch.context() as patch:
        patch.setattr(engines, "_GROUP_BYTES", group_bytes)
        tracemalloc.start()
        try:
            pool.compute_uploads(model)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestGroupedEngine:
    def test_paper_shape_grouped_equals_one_group(self, monkeypatch):
        """Uploads, momentum rows and post-noise generator states, 3 rounds."""
        model, grouped = paper_shape_pool()
        _, whole = paper_shape_pool()
        # One worker's (16, 6570) expansion is 0.8 MiB: a group apiece.
        assert engines._worker_groups(20, 16, model.num_parameters) == [
            (worker, worker + 1) for worker in range(20)
        ]
        for round_index in range(3):
            uploads = grouped.compute_uploads(model).copy()
            with monkeypatch.context() as patch:
                patch.setattr(engines, "_GROUP_BYTES", 1 << 62)
                expected = whole.compute_uploads(model)
            np.testing.assert_array_equal(uploads, expected, err_msg=f"round {round_index}")
            np.testing.assert_array_equal(
                grouped.state.slot_momentum, whole.state.slot_momentum
            )
            assert [rng.bit_generator.state for rng in grouped.rngs] == [
                rng.bit_generator.state for rng in whole.rngs
            ]

    def test_first_round_memory_bounded_by_group(self, monkeypatch):
        """The first paper-shape round peaks far below one (n b_c, d)
        tensor, and expands one worker's ``(16, d)`` gradients at a time.

        The stacked tensor alone is 16.0 MiB, and 64-row blocks peaked at
        6.0 MiB; a tracemalloc peak is the same on every host, unlike RSS.
        Each worker a group holds adds its expansion (0.80 MiB) and its
        bounding temporaries (0.10 MiB) to the peak, so the peaks with
        groups of one and of two workers extrapolate to the call's peak
        without an expansion, and the default call's expansion is what it
        peaks above that.
        """
        model, _ = paper_shape_pool()
        expansion = 16 * model.num_parameters * 8  # one worker's
        budgets = (engines._GROUP_BYTES, expansion, 2 * expansion)
        peak, one, two = (first_call_peak(monkeypatch, budget) for budget in budgets)
        assert peak < 5 << 20
        assert expansion <= peak - (2 * one - two) <= engines._GROUP_BYTES

    def test_uploads_are_the_momentum_rows(self):
        """Line 11: the engine writes the uploads into the state and returns it."""
        model, pool = paper_shape_pool()
        features = np.zeros((20 * 16, 64))
        labels = np.zeros(20 * 16, dtype=np.int64)
        state = pool.state
        uploads = MaterializedEngine().compute_uploads(
            model, features, labels, 20, state, pool.dp_config, list(pool.rngs)
        )
        assert uploads is state.slot_momentum
        assert uploads.shape == (20, model.num_parameters)


class TestCustomEngine:
    def test_registered_engine_runs_through_pool(self):
        calls = []

        @ENGINES.register("counting_demo", summary="test engine", replace=True)
        class CountingEngine(MaterializedEngine):
            def compute_uploads(self, model, features, labels, n_workers, *rest):
                calls.append(n_workers)
                return super().compute_uploads(
                    model, features, labels, n_workers, *rest
                )

        try:
            model, _ = make_model_and_data(seed=0)
            shards = make_shards(4)
            pool = make_pool(
                shards, DPConfig(batch_size=4, sigma=1.0),
                engine="counting_demo", shard_size=2,
            )
            uploads = pool.compute_uploads(model)
            assert uploads.shape == (4, model.num_parameters)
            assert calls == [2, 2]
            assert pool.engine_name == "counting_demo"
        finally:
            ENGINES.unregister("counting_demo")

    def test_reregistered_name_computes_from_the_next_call(self, monkeypatch):
        """Every shard task builds its engine from the registered name, so
        re-registering the name (``replace=True``) takes effect on the next
        pool call, on the calling thread and on a pool's own threads."""
        built = []
        for engine_class in (MaterializedEngine, GhostNormEngine):
            compute = engine_class.compute_uploads

            def recording(self, *args, _compute=compute):
                built.append(type(self))
                return _compute(self, *args)

            monkeypatch.setattr(engine_class, "compute_uploads", recording)
        model, _ = make_model_and_data(seed=0)
        shards = make_shards(4)
        config = DPConfig(batch_size=4, sigma=1.0)
        threads = ThreadedBackend(max_workers=2)
        ENGINES.register("demo_engine", MaterializedEngine, replace=True)
        try:
            pools = {
                "serial": make_pool(shards, config, engine="demo_engine"),
                "threaded": make_pool(
                    shards, config, engine="demo_engine", backend=threads
                ),
            }
            for name, pool in pools.items():
                pool.compute_uploads(model)
                assert set(built) == {MaterializedEngine}, name
            ENGINES.register("demo_engine", GhostNormEngine, replace=True)
            for name, pool in pools.items():
                built.clear()
                pool.compute_uploads(model)
                assert built and set(built) == {GhostNormEngine}, name
        finally:
            ENGINES.unregister("demo_engine")
            threads.shutdown()
