"""Tests for WorkerPool: the batched client path vs the sequential protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.core.dp_protocol import LocalDPState, local_update
from repro.data.synthetic import make_classification
from repro.federated.worker import WorkerPool
from tests.helpers import make_model_and_data


def make_shards(n_workers, seed=0, n_features=8, n_classes=3):
    rng = np.random.default_rng(seed)
    data = make_classification(
        n_samples=40 * n_workers,
        n_features=n_features,
        n_classes=n_classes,
        nonlinear=False,
        rng=rng,
        name="pool",
    )
    return [
        data.subset(np.arange(i * 40, (i + 1) * 40)) for i in range(n_workers)
    ]


def sequential_uploads(model, shards, config, seeds):
    """Ground truth: the scalar protocol run worker by worker."""
    states = [LocalDPState() for _ in shards]
    rngs = [np.random.default_rng(seed) for seed in seeds]

    def one_round():
        return np.vstack(
            [
                local_update(model, shard, state, config, rng)
                for shard, state, rng in zip(shards, states, rngs)
            ]
        )

    return one_round


class TestWorkerPool:
    def test_uploads_match_sequential_protocol(self):
        """The tentpole equivalence: batched rounds == sequential rounds."""
        model, _ = make_model_and_data(seed=2)
        shards = make_shards(6, seed=3)
        config = DPConfig(batch_size=8, sigma=0.9, momentum=0.3)
        seeds = list(range(50, 56))

        reference_round = sequential_uploads(model, shards, config, seeds)
        pool = WorkerPool(
            shards, config, [np.random.default_rng(seed) for seed in seeds]
        )
        for round_index in range(4):
            expected = reference_round()
            actual = pool.compute_uploads(model)
            np.testing.assert_allclose(
                actual, expected, rtol=1e-9, atol=1e-12,
                err_msg=f"round {round_index}",
            )

    def test_uploads_match_sequential_protocol_clip_mode(self):
        model, _ = make_model_and_data(seed=4)
        shards = make_shards(3, seed=5)
        config = DPConfig(batch_size=4, sigma=0.5, bounding="clip", clip_norm=0.8)
        seeds = [7, 8, 9]
        reference_round = sequential_uploads(model, shards, config, seeds)
        pool = WorkerPool(
            shards, config, [np.random.default_rng(seed) for seed in seeds]
        )
        for _ in range(3):
            np.testing.assert_allclose(
                pool.compute_uploads(model), reference_round(),
                rtol=1e-9, atol=1e-12,
            )

    @pytest.mark.parametrize(
        ("sigma", "momentum", "seed"), [(1.0, 0.1, 11), (0.7, 0.2, 21)]
    )
    def test_single_worker_pool_matches_scalar(self, sigma, momentum, seed):
        model, dataset = make_model_and_data(seed=6)
        config = DPConfig(batch_size=8, sigma=sigma, momentum=momentum)
        pool = WorkerPool([dataset], config, [np.random.default_rng(seed)])
        state = LocalDPState()
        rng = np.random.default_rng(seed)
        for _ in range(3):
            expected = local_update(model, dataset, state, config, rng)
            np.testing.assert_allclose(
                pool.compute_uploads(model)[0], expected, rtol=1e-9, atol=1e-12
            )

    def test_upload_shape(self):
        model, _ = make_model_and_data(seed=0)
        shards = make_shards(4)
        pool = WorkerPool(
            shards, DPConfig(batch_size=4, sigma=1.0),
            [np.random.default_rng(i) for i in range(4)],
        )
        uploads = pool.compute_uploads(model)
        assert uploads.shape == (4, model.num_parameters)

    def test_deterministic_given_generators(self):
        model, _ = make_model_and_data(seed=1)
        shards = make_shards(3)
        config = DPConfig(batch_size=4, sigma=1.0)
        a = WorkerPool(shards, config, [np.random.default_rng(i) for i in range(3)])
        b = WorkerPool(shards, config, [np.random.default_rng(i) for i in range(3)])
        np.testing.assert_array_equal(
            a.compute_uploads(model), b.compute_uploads(model)
        )

    def test_reset_clears_momentum(self):
        model, _ = make_model_and_data(seed=1)
        shards = make_shards(2)
        pool = WorkerPool(
            shards, DPConfig(batch_size=4, sigma=0.5),
            [np.random.default_rng(i) for i in range(2)],
        )
        pool.compute_uploads(model)
        assert pool.state.slot_momentum.shape == (2, model.num_parameters)
        pool.reset()
        assert pool.state.slot_momentum.shape == (0, 0)

    def test_state_exposes_per_worker_views(self):
        model, _ = make_model_and_data(seed=1)
        shards = make_shards(3)
        rngs = [np.random.default_rng(i) for i in range(3)]
        pool = WorkerPool(shards, DPConfig(batch_size=4, sigma=0.5), rngs)
        assert pool.datasets[1] is shards[1]
        assert pool.rngs[1] is rngs[1]
        assert pool.state.slot_momentum.shape == (0, 0)  # before the first round
        uploads = pool.compute_uploads(model)
        for index in range(3):
            momentum = pool.state.momentum_of(index)
            assert momentum.shape == (4, model.num_parameters)
            assert not momentum.flags.writeable
            np.testing.assert_array_equal(momentum[0], uploads[index])

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            WorkerPool([], DPConfig(), [])

    def test_rejects_mismatched_generator_count(self):
        shards = make_shards(2)
        with pytest.raises(ValueError):
            WorkerPool(shards, DPConfig(), [np.random.default_rng(0)])

    def test_rejects_empty_worker_dataset(self):
        shards = make_shards(1)
        empty = shards[0].subset(np.arange(0))
        with pytest.raises(ValueError):
            WorkerPool([empty], DPConfig(), [np.random.default_rng(0)])

    def test_rejects_mixed_feature_dimensions(self):
        a = make_shards(1, n_features=8)[0]
        b = make_shards(1, n_features=9)[0]
        with pytest.raises(ValueError):
            WorkerPool([a, b], DPConfig(), [np.random.default_rng(0)] * 2)
