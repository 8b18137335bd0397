"""Tests for an honest worker (a one-worker WorkerPool) and Server."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.core.dp_protocol import upload_noise_std
from repro.data.dataset import Dataset
from repro.defenses.mean import MeanAggregator
from repro.federated import server as server_module
from repro.federated.server import Server
from repro.federated.worker import WorkerPool
from tests.helpers import make_model_and_data


@pytest.fixture
def setup():
    model, dataset = make_model_and_data(seed=6)
    return model, dataset


class TestHonestWorker:
    """One protocol-following worker of Algorithm 1: a one-worker pool."""

    @staticmethod
    def make_worker(dataset, config, seed=0):
        return WorkerPool([dataset], config, [np.random.default_rng(seed)])

    def test_rejects_empty_dataset(self, setup):
        _, dataset = setup
        empty = Dataset(
            features=np.zeros((0, dataset.dim)),
            labels=np.zeros(0, dtype=int),
            num_classes=dataset.num_classes,
        )
        with pytest.raises(ValueError):
            self.make_worker(empty, DPConfig())

    def test_upload_shape(self, setup):
        model, dataset = setup
        worker = self.make_worker(dataset, DPConfig(batch_size=4, sigma=1.0))
        uploads = worker.compute_uploads(model)
        assert uploads.shape == (1, model.num_parameters)

    def test_momentum_state_persists_between_uploads(self, setup):
        model, dataset = setup
        worker = self.make_worker(dataset, DPConfig(batch_size=4, sigma=0.5))
        for _ in range(2):
            upload = worker.compute_uploads(model)[0]
            momentum = worker.state.momentum_of(0)
            assert momentum.shape == (4, model.num_parameters)
            # Algorithm 1 line 11: every slot now holds the upload.
            np.testing.assert_array_equal(
                momentum, np.broadcast_to(upload, momentum.shape)
            )

    def test_reset_clears_momentum(self, setup):
        model, dataset = setup
        worker = self.make_worker(dataset, DPConfig(batch_size=4, sigma=0.5))
        worker.compute_uploads(model)
        worker.reset()
        assert worker.state.slot_momentum.shape == (0, 0)

    def test_two_workers_with_same_seed_agree(self, setup):
        model, dataset = setup
        config = DPConfig(batch_size=4, sigma=1.0)
        a = self.make_worker(dataset, config, seed=5)
        b = self.make_worker(dataset, config, seed=5)
        np.testing.assert_array_equal(
            a.compute_uploads(model), b.compute_uploads(model)
        )


class TestServer:
    def make_server(self, model, dataset, learning_rate=0.5, sigma=0.0):
        return Server(
            model=model,
            aggregator=MeanAggregator(),
            learning_rate=learning_rate,
            dp_config=DPConfig(batch_size=8, sigma=sigma),
            auxiliary=dataset.subset(np.arange(6)),
            rng=np.random.default_rng(9),
        )

    def test_rejects_nonpositive_learning_rate(self, setup):
        model, dataset = setup
        with pytest.raises(ValueError):
            Server(
                model=model,
                aggregator=MeanAggregator(),
                learning_rate=0.0,
                dp_config=DPConfig(),
                auxiliary=None,
                rng=np.random.default_rng(0),
            )

    def test_rejects_missing_auxiliary_for_aux_dependent_defense(self, setup):
        model, _ = setup
        from repro.core.protocol import TwoStageAggregator

        with pytest.raises(ValueError):
            Server(
                model=model,
                aggregator=TwoStageAggregator(),
                learning_rate=0.1,
                dp_config=DPConfig(),
                auxiliary=None,
                rng=np.random.default_rng(0),
            )

    def test_update_applies_learning_rate(self, setup):
        model, dataset = setup
        server = self.make_server(model, dataset, learning_rate=0.5)
        before = model.get_flat_parameters().copy()
        upload = np.ones(model.num_parameters)
        aggregated = server.update(np.vstack([upload, upload]), np.arange(2), 2)
        np.testing.assert_allclose(aggregated, upload)
        np.testing.assert_allclose(model.get_flat_parameters(), before - 0.5 * upload)

    def test_update_hands_the_rule_its_context(self, setup):
        """The rule sees the upload noise, the model and the rows' worker
        ids keyed over the registered population."""
        model, dataset = setup
        server = self.make_server(model, dataset, sigma=3.2)
        contexts = []

        class Recording(MeanAggregator):
            def aggregate(self, uploads, context):
                contexts.append(context)
                return super().aggregate(uploads, context)

        server.aggregator = Recording()
        server.update(np.zeros((2, model.num_parameters)), [1, 4], population=6)
        (context,) = contexts
        assert context.upload_noise_std == pytest.approx(
            upload_noise_std(DPConfig(batch_size=8, sigma=3.2))
        )
        assert context.model is model
        np.testing.assert_array_equal(context.worker_ids, [1, 4])
        assert context.worker_ids.dtype == np.int64
        assert context.population == 6

    def test_evaluate_returns_accuracy_in_unit_interval(self, setup):
        model, dataset = setup
        server = self.make_server(model, dataset)
        accuracy = server.evaluate(dataset)
        assert 0.0 <= accuracy <= 1.0

    def test_evaluate_chunked_matches_full_forward(self, setup, monkeypatch):
        """Chunked evaluation is exact, whatever the chunk size."""
        model, dataset = setup
        server = self.make_server(model, dataset)
        from repro.nn.metrics import accuracy as accuracy_metric

        full = accuracy_metric(model.predict(dataset.features), dataset.labels)
        for batch_size in (1, 7, len(dataset) - 1, len(dataset), 10 * len(dataset)):
            monkeypatch.setattr(server_module, "EVAL_BATCH_SIZE", batch_size)
            assert server.evaluate(dataset) == full

    def test_zero_update_leaves_model_unchanged(self, setup):
        model, dataset = setup
        server = self.make_server(model, dataset)
        before = model.get_flat_parameters().copy()
        server.update(np.zeros((1, model.num_parameters)), np.arange(1), 1)
        np.testing.assert_array_equal(model.get_flat_parameters(), before)
