"""Tests for the experiment runner (kept tiny so they run in seconds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.results import RunResult
from repro.experiments.configs import ExperimentConfig
from repro.experiments.reference import reference_accuracy, reference_config
from repro.experiments.runner import prepare_experiment, run_experiment, run_seeds
from repro.federated.backends import ThreadedBackend
from repro.federated.faults import ChaosFaults


TINY = ExperimentConfig(
    dataset="usps_like",
    scale=0.05,
    n_honest=4,
    model="linear",
    epochs=1,
    epsilon=1.0,
    seed=1,
)


class TestPrepareExperiment:
    def test_each_setting_lands_on_its_one_consumer(self):
        faults_kwargs = {"dropout": 0.2, "crash": 0.3}
        config = TINY.replace(
            byzantine_fraction=0.5, attack="label_flip", defense="two_stage",
            engine="ghost_norm", shard_size=2,
            backend="threaded", backend_kwargs={"max_workers": 2},
            faults="chaos", faults_kwargs=faults_kwargs,
            min_quorum=0.5, retry_kwargs={"max_attempts": 4}, gamma=0.7,
        )
        setup = prepare_experiment(config, seed=5)
        simulation = setup.simulation
        try:
            pools = [simulation.honest_pool, simulation.byzantine_pool]
            assert [pool.n_workers for pool in pools] == [4, 4]
            for pool in pools:
                assert pool.shard_size == 2
                assert pool.engine_name == "ghost_norm"
                assert pool.backend is simulation.backend
            assert isinstance(simulation.backend, ThreadedBackend)
            assert simulation.backend.max_workers == 2

            faults = simulation.fault_model
            assert type(faults) is ChaosFaults
            assert faults.seed == 5
            expected = ChaosFaults(**faults_kwargs, seed=5)
            for round_index in range(4):
                plan = faults.report_faults(round_index, 8)
                reference = expected.report_faults(round_index, 8)
                np.testing.assert_array_equal(plan.dropped, reference.dropped)
                np.testing.assert_array_equal(
                    faults.crash_failures(round_index, 0, 2),
                    expected.crash_failures(round_index, 0, 2),
                )

            assert simulation.server.min_quorum == 0.5
            assert simulation.retry_policy.max_attempts == 4
            assert simulation.server.aggregator.config.gamma == 0.7
        finally:
            simulation.close()


class TestRunExperiment:
    def test_returns_run_result(self):
        result = run_experiment(TINY)
        assert isinstance(result, RunResult)
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_metadata_fields(self):
        result = run_experiment(TINY)
        for key in (
            "total_rounds",
            "delta",
            "n_byzantine",
            "n_honest",
            "local_dataset_size",
            "model_size",
        ):
            assert key in result.metadata
        assert result.metadata["n_honest"] == 4
        assert result.metadata["n_byzantine"] == 0

    def test_dp_run_has_positive_sigma(self):
        result = run_experiment(TINY)
        assert result.sigma > 0.0
        assert result.epsilon == 1.0

    def test_non_dp_run_has_zero_sigma(self):
        result = run_experiment(TINY.replace(epsilon=None))
        assert result.sigma == 0.0
        assert result.epsilon is None
        assert result.metadata["delta"] is None

    def test_delta_defaults_to_paper_convention(self):
        result = run_experiment(TINY)
        local_size = result.metadata["local_dataset_size"]
        assert result.metadata["delta"] == pytest.approx(1.0 / local_size**1.1)

    def test_explicit_delta_respected(self):
        result = run_experiment(TINY.replace(delta=1e-3))
        assert result.metadata["delta"] == pytest.approx(1e-3)

    def test_learning_rate_transfer(self):
        """eta * sigma is constant across privacy levels (Claim 6)."""
        loose = run_experiment(TINY.replace(epsilon=2.0))
        tight = run_experiment(TINY.replace(epsilon=0.5))
        assert tight.sigma > loose.sigma
        assert loose.learning_rate * loose.sigma == pytest.approx(
            tight.learning_rate * tight.sigma, rel=1e-6
        )

    def test_seed_override(self):
        result = run_experiment(TINY, seed=7)
        assert result.seed == 7

    def test_reproducible(self):
        a = run_experiment(TINY)
        b = run_experiment(TINY)
        assert a.final_accuracy == b.final_accuracy
        assert a.sigma == b.sigma

    def test_byzantine_experiment_runs(self):
        config = TINY.replace(
            byzantine_fraction=0.5, attack="gaussian", defense="two_stage", gamma=0.5
        )
        result = run_experiment(config)
        assert result.metadata["n_byzantine"] == 4
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_label_flip_experiment_runs(self):
        config = TINY.replace(
            byzantine_fraction=0.5, attack="label_flip", defense="two_stage", gamma=0.5
        )
        assert 0.0 <= run_experiment(config).final_accuracy <= 1.0

    def test_adaptive_attack_experiment_runs(self):
        config = TINY.replace(
            byzantine_fraction=0.5, attack="adaptive_gaussian", ttbb=0.5,
            defense="two_stage", gamma=0.5,
        )
        assert 0.0 <= run_experiment(config).final_accuracy <= 1.0

    def test_noniid_experiment_runs(self):
        assert 0.0 <= run_experiment(TINY.replace(iid=False)).final_accuracy <= 1.0

    def test_mismatched_auxiliary_runs(self):
        config = TINY.replace(aux_mismatched=True)
        assert 0.0 <= run_experiment(config).final_accuracy <= 1.0

    def test_clip_bounding_runs(self):
        config = TINY.replace(bounding="clip", clip_norm=1.0)
        assert 0.0 <= run_experiment(config).final_accuracy <= 1.0

    @pytest.mark.parametrize("defense", ["mean", "krum", "median", "trimmed_mean", "fltrust"])
    def test_baseline_defenses_run(self, defense):
        config = TINY.replace(
            byzantine_fraction=0.4, attack="gaussian", defense=defense, gamma=0.6
        )
        assert 0.0 <= run_experiment(config).final_accuracy <= 1.0

    def test_model_override(self):
        result = run_experiment(TINY.replace(model="mlp_small"))
        default = run_experiment(TINY)
        assert result.metadata["model_size"] > default.metadata["model_size"]

    def test_history_recorded(self):
        result = run_experiment(TINY)
        assert len(result.history.rounds) >= 1
        assert result.history.final_accuracy == result.final_accuracy


class TestRunSeeds:
    def test_summary_over_three_seeds(self):
        summary, runs = run_seeds(TINY, seeds=[1, 2, 3])
        assert summary.n_runs == 3
        assert len(runs) == 3
        assert summary.minimum <= summary.mean <= summary.maximum

    def test_default_seeds_are_one_two_three(self):
        summary, runs = run_seeds(TINY)
        assert [run.seed for run in runs] == [1, 2, 3]


class TestReference:
    def test_reference_config_strips_attack_and_defense(self):
        config = ExperimentConfig(
            byzantine_fraction=0.6, attack="lmp", defense="two_stage"
        )
        reference = reference_config(config)
        assert reference.byzantine_fraction == 0.0
        assert reference.attack == "none"
        assert reference.defense == "mean"

    def test_reference_preserves_privacy_setting(self):
        config = ExperimentConfig(epsilon=0.25, dataset="usps_like")
        assert reference_config(config).epsilon == 0.25
        assert reference_config(config).dataset == "usps_like"

    def test_reference_accuracy_runs(self):
        result = reference_accuracy(TINY.replace(byzantine_fraction=0.5, attack="gaussian"))
        assert result.metadata["n_byzantine"] == 0
        assert np.isfinite(result.final_accuracy)
