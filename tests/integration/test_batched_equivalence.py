"""Seeded equivalence of the batched client path vs the sequential protocol.

The batched ``WorkerPool`` path must reproduce the sequential per-worker
protocol: same uploads (tight tolerance) and, end-to-end, the same recorded
accuracies and Byzantine-selected fractions for a seeded run.  The
sequential reference is obtained by patching ``WorkerPool.compute_uploads``
with a worker-by-worker loop over the scalar :func:`local_update`, sharing
the pool's datasets and per-worker generators.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dp_protocol import LocalDPState, local_update
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.federated.worker import WorkerPool


def scalar_compute_uploads(pool, model, crash_plan=None, out=None):
    """Sequential reference: one scalar ``local_update`` per worker, in order.

    Like ``WorkerPool.compute_uploads`` it fills and returns ``out`` (the
    round matrix's rows, in a round) when one is given.
    """
    assert crash_plan is None or not crash_plan.is_active
    if not hasattr(pool, "_scalar_states"):
        pool._scalar_states = [LocalDPState() for _ in range(pool.n_workers)]
    if out is None:
        out = np.empty((pool.n_workers, model.num_parameters), dtype=np.float64)
    for row, (dataset, state, rng) in enumerate(
        zip(pool.datasets, pool._scalar_states, pool.rngs)
    ):
        out[row] = local_update(model, dataset, state, pool.dp_config, rng)
    return out


BASE = ExperimentConfig(
    dataset="mnist_like",
    scale=0.15,
    n_honest=5,
    model="linear",
    epochs=1,
    epsilon=1.0,
    seed=7,
)


def run_sequential(monkeypatch, config):
    with monkeypatch.context() as patch:
        patch.setattr(WorkerPool, "compute_uploads", scalar_compute_uploads)
        return run_experiment(config)


@pytest.mark.parametrize(
    "config",
    [
        BASE,
        # protocol-following Byzantine workers go through their own pool
        BASE.replace(byzantine_fraction=0.5, attack="label_flip", gamma=0.5),
        # crafting attack: the attacker sees the batched honest uploads
        BASE.replace(byzantine_fraction=0.5, attack="lmp", gamma=0.5),
    ],
    ids=["no-attack", "label-flip", "lmp"],
)
def test_seeded_run_is_decision_identical(monkeypatch, config):
    batched = run_experiment(config)
    sequential = run_sequential(monkeypatch, config)
    assert (
        batched.history.test_accuracy == sequential.history.test_accuracy
    ), "recorded accuracies differ between batched and sequential client paths"
    assert (
        batched.history.byzantine_selected_fraction
        == sequential.history.byzantine_selected_fraction
    ), "Byzantine-selected fractions differ between batched and sequential paths"
    assert batched.final_accuracy == sequential.final_accuracy


def test_round_uploads_allclose(monkeypatch):
    """Per-round uploads agree at tight tolerance (not just final decisions)."""
    from repro.core.config import DPConfig
    from repro.data.synthetic import make_classification
    from repro.nn.layers import Linear
    from repro.nn.network import Sequential

    rng = np.random.default_rng(0)
    data = make_classification(200, 12, 3, nonlinear=False, rng=rng, name="eq")
    shards = [data.subset(np.arange(i * 40, (i + 1) * 40)) for i in range(5)]
    config = DPConfig(batch_size=8, sigma=0.8, momentum=0.4)
    model = Sequential([Linear(12, 3, np.random.default_rng(1))])

    batched_pool = WorkerPool(
        shards, config, [np.random.default_rng(30 + i) for i in range(5)]
    )
    sequential_pool = WorkerPool(
        shards, config, [np.random.default_rng(30 + i) for i in range(5)]
    )
    for round_index in range(5):
        batched = batched_pool.compute_uploads(model)
        expected = scalar_compute_uploads(sequential_pool, model)
        np.testing.assert_allclose(
            batched, expected, rtol=1e-9, atol=1e-12,
            err_msg=f"round {round_index}",
        )
