"""Tests for the federated training loop and the history container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.adaptive import AdaptiveAttack
from repro.byzantine.gaussian import GaussianAttack
from repro.byzantine.label_flip import LabelFlipAttack
from repro.byzantine.lmp import LocalModelPoisoningAttack
from repro.core.config import DPConfig, ProtocolConfig
from repro.core.protocol import TwoStageAggregator
from repro.data.partition import partition_iid
from repro.data.auxiliary import sample_auxiliary
from repro.data.synthetic import make_classification
from repro.defenses.mean import MeanAggregator
from repro.federated.history import TrainingHistory
from repro.federated.simulation import FederatedSimulation, SimulationSettings
from repro.nn.layers import ELU, Linear
from repro.nn.network import Sequential


def build_simulation(
    n_honest: int = 4,
    n_byzantine: int = 0,
    attack=None,
    aggregator=None,
    sigma: float = 0.5,
    total_rounds: int = 5,
    seed: int = 0,
) -> FederatedSimulation:
    rng = np.random.default_rng(seed)
    data = make_classification(240, 8, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="sim")
    test = make_classification(90, 8, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="sim_test")
    shards = partition_iid(data, n_honest, rng)
    auxiliary = sample_auxiliary(test, per_class=2, rng=rng)
    model = Sequential([Linear(8, 32, rng), ELU(), Linear(32, 3, rng)])
    settings = SimulationSettings(
        total_rounds=total_rounds, learning_rate=0.5, eval_every=2
    )
    return FederatedSimulation(
        model=model,
        honest_datasets=shards,
        n_byzantine=n_byzantine,
        attack=attack,
        aggregator=aggregator if aggregator is not None else MeanAggregator(),
        dp_config=DPConfig(batch_size=8, sigma=sigma),
        auxiliary=auxiliary,
        test_dataset=test,
        settings=settings,
        seed=seed,
    )


class TestSimulationSettings:
    def test_valid_settings(self):
        settings = SimulationSettings(total_rounds=10, learning_rate=0.1)
        assert settings.total_rounds == 10
        assert settings.learning_rate == 0.1
        assert settings.eval_every == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_rounds": 0, "learning_rate": 0.1},
            {"total_rounds": 10, "learning_rate": 0.0},
            {"total_rounds": 10, "learning_rate": 0.1, "eval_every": 0},
        ],
    )
    def test_invalid_settings(self, kwargs):
        with pytest.raises(ValueError):
            SimulationSettings(**kwargs)


class TestConstruction:
    def test_requires_honest_workers(self):
        with pytest.raises(ValueError):
            build_simulation(n_honest=0)

    def test_requires_attack_when_byzantine_present(self):
        with pytest.raises(ValueError):
            build_simulation(n_byzantine=2, attack=None)

    def test_rejects_negative_byzantine(self):
        with pytest.raises(ValueError):
            build_simulation(n_byzantine=-1, attack=GaussianAttack())

    def test_worker_counts(self):
        simulation = build_simulation(n_honest=4, n_byzantine=3, attack=GaussianAttack())
        assert simulation.n_honest == 4
        assert simulation.n_byzantine == 3
        assert simulation.n_workers == 7

    def test_honest_pool_runs_every_honest_shard(self):
        simulation = build_simulation(n_honest=4)
        pool = simulation.honest_pool
        assert pool.n_workers == simulation.n_honest == 4
        assert sum(len(dataset) for dataset in pool.datasets) == 240

    def test_protocol_following_attack_creates_byzantine_workers(self):
        simulation = build_simulation(n_honest=4, n_byzantine=3, attack=LabelFlipAttack())
        assert simulation.byzantine_pool.n_workers == 3

    def test_crafting_attack_creates_no_byzantine_workers(self):
        simulation = build_simulation(n_honest=4, n_byzantine=3, attack=GaussianAttack())
        assert simulation.byzantine_pool is None


class TestRounds:
    def test_run_round_returns_diagnostics(self):
        simulation = build_simulation()
        diagnostics = simulation.run_round(0)
        assert "byzantine_selected_fraction" in diagnostics

    def test_round_changes_model(self):
        simulation = build_simulation()
        before = simulation.model.get_flat_parameters().copy()
        simulation.run_round(0)
        assert not np.allclose(before, simulation.model.get_flat_parameters())

    def test_run_produces_history(self):
        simulation = build_simulation(total_rounds=6)
        history = simulation.run()
        assert len(history.rounds) >= 1
        assert history.rounds[-1] == 5  # final round always evaluated
        assert all(0.0 <= acc <= 1.0 for acc in history.test_accuracy)

    def test_eval_every_controls_history_length(self):
        simulation = build_simulation(total_rounds=6)
        history = simulation.run()
        # eval_every=2 over 6 rounds -> rounds 1, 3, 5
        assert history.rounds == [1, 3, 5]

    def test_label_flip_byzantine_uploads_shape(self):
        simulation = build_simulation(n_honest=4, n_byzantine=2, attack=LabelFlipAttack())
        honest = simulation.honest_pool.compute_uploads(simulation.model)
        byzantine = simulation.byzantine_uploads(honest, round_index=0)
        assert byzantine.shape == (2, honest.shape[1])

    def test_lmp_byzantine_uploads_oppose_honest_sum(self):
        simulation = build_simulation(
            n_honest=4, n_byzantine=7, attack=LocalModelPoisoningAttack()
        )
        honest = simulation.honest_pool.compute_uploads(simulation.model)
        byzantine = simulation.byzantine_uploads(honest, round_index=0)
        total = honest.sum(axis=0) + byzantine.sum(axis=0)
        assert float(np.dot(total, honest.sum(axis=0))) < 0.0

    def test_dormant_adaptive_attack_copies_honest_uploads(self):
        attack = AdaptiveAttack(GaussianAttack(), ttbb=0.9)
        simulation = build_simulation(
            n_honest=4, n_byzantine=2, attack=attack, total_rounds=10
        )
        honest = simulation.honest_pool.compute_uploads(simulation.model)
        byzantine = simulation.byzantine_uploads(honest, round_index=0)
        honest_rows = {tuple(np.round(row, 9)) for row in honest}
        for row in byzantine:
            assert tuple(np.round(row, 9)) in honest_rows

    def test_no_byzantine_returns_empty_array(self):
        simulation = build_simulation(n_honest=3)
        honest = simulation.honest_pool.compute_uploads(simulation.model)
        byzantine = simulation.byzantine_uploads(honest, round_index=0)
        assert byzantine.shape == (0, honest.shape[1])

    def test_two_stage_aggregator_tracks_byzantine_selection(self):
        aggregator = TwoStageAggregator(ProtocolConfig(gamma=0.5))
        simulation = build_simulation(
            n_honest=4,
            n_byzantine=4,
            attack=LocalModelPoisoningAttack(),
            aggregator=aggregator,
            total_rounds=3,
        )
        diagnostics = simulation.run_round(0)
        assert 0.0 <= diagnostics["byzantine_selected_fraction"] <= 1.0

    def test_same_seed_reproducible(self):
        history_a = build_simulation(seed=11, total_rounds=4).run()
        history_b = build_simulation(seed=11, total_rounds=4).run()
        assert history_a.test_accuracy == history_b.test_accuracy

    def test_different_seeds_differ(self):
        history_a = build_simulation(seed=11, total_rounds=4, sigma=1.0).run()
        history_b = build_simulation(seed=12, total_rounds=4, sigma=1.0).run()
        assert history_a.test_accuracy != history_b.test_accuracy


class TestTrainingHistory:
    def test_record_and_final(self):
        history = TrainingHistory()
        history.record(0, 0.3)
        history.record(5, 0.7, byzantine_selected=0.1)
        assert history.final_accuracy == 0.7
        assert history.best_accuracy == 0.7
        assert history.byzantine_selected_fraction == [0.0, 0.1]

    def test_best_differs_from_final(self):
        history = TrainingHistory()
        history.record(0, 0.8)
        history.record(1, 0.6)
        assert history.best_accuracy == 0.8
        assert history.final_accuracy == 0.6

    def test_empty_history_raises(self):
        history = TrainingHistory()
        with pytest.raises(ValueError):
            _ = history.final_accuracy
        with pytest.raises(ValueError):
            _ = history.best_accuracy

    def test_as_dict_round_trip(self):
        history = TrainingHistory()
        history.record(2, 0.5, 0.25)
        data = history.as_dict()
        assert data == {
            "rounds": [2],
            "test_accuracy": [0.5],
            "byzantine_selected_fraction": [0.25],
        }

    def test_as_dict_returns_copies(self):
        history = TrainingHistory()
        history.record(0, 0.1)
        data = history.as_dict()
        data["rounds"].append(99)
        assert history.rounds == [0]
