"""Tests for ExperimentConfig."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.configs import ExperimentConfig
from repro.experiments.presets import (
    BYZANTINE_LEVELS,
    benchmark_preset,
    paper_preset,
)

#: Every preset family x dataset, with non-trivial attack/defense kwargs.
ALL_PRESETS = {}
for dataset in ("mnist_like", "fashion_like", "usps_like", "colorectal_like"):
    for fraction in (0.0, *BYZANTINE_LEVELS):
        key = f"benchmark-{dataset}-{fraction}"
        ALL_PRESETS[key] = benchmark_preset(
            dataset=dataset,
            byzantine_fraction=fraction,
            attack="none" if fraction == 0.0 else "adaptive_lmp",
            ttbb=0.0 if fraction == 0.0 else 0.5,
            attack_kwargs={} if fraction == 0.0 else {"lambda_override": 2.0},
            defense_kwargs={"ks_significance": 0.1},
        )
        ALL_PRESETS[f"paper-{dataset}-{fraction}"] = paper_preset(
            dataset=dataset,
            byzantine_fraction=fraction,
            attack="none" if fraction == 0.0 else "lmp",
            epsilon=0.25,
        )


class TestDefaults:
    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.batch_size == 16
        assert config.momentum == pytest.approx(0.1)
        assert config.base_lr == pytest.approx(0.2)
        assert config.base_epsilon == pytest.approx(2.0)
        assert config.aux_per_class == 2
        assert config.bounding == "normalize"
        assert config.iid

    def test_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(Exception):
            config.epsilon = 5.0  # type: ignore[misc]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"byzantine_fraction": 1.0},
            {"byzantine_fraction": -0.1},
            {"n_honest": 0},
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"epochs": 0},
            {"gamma": 0.0},
            {"gamma": 1.2},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_epsilon_none_is_non_private(self):
        assert ExperimentConfig(epsilon=None).epsilon is None


class TestByzantineCount:
    def test_zero_fraction(self):
        assert ExperimentConfig(byzantine_fraction=0.0).n_byzantine == 0

    def test_twenty_percent(self):
        config = ExperimentConfig(n_honest=20, byzantine_fraction=0.2)
        assert config.n_byzantine == 5  # 5 / 25 = 20%

    def test_sixty_percent(self):
        config = ExperimentConfig(n_honest=20, byzantine_fraction=0.6)
        assert config.n_byzantine == 30  # 30 / 50 = 60%

    def test_ninety_percent(self):
        config = ExperimentConfig(n_honest=20, byzantine_fraction=0.9)
        assert config.n_byzantine == 180  # 180 / 200 = 90%

    def test_fraction_recovered(self):
        for fraction in (0.2, 0.4, 0.6, 0.9):
            config = ExperimentConfig(n_honest=10, byzantine_fraction=fraction)
            total = config.n_honest + config.n_byzantine
            assert config.n_byzantine / total == pytest.approx(fraction, abs=0.05)

    def test_at_least_one_byzantine_for_tiny_fractions(self):
        config = ExperimentConfig(n_honest=5, byzantine_fraction=0.01)
        assert config.n_byzantine == 1


class TestReplace:
    def test_replace_changes_field(self):
        config = ExperimentConfig(epsilon=1.0)
        replaced = config.replace(epsilon=0.25)
        assert replaced.epsilon == 0.25
        assert config.epsilon == 1.0

    def test_replace_preserves_other_fields(self):
        config = ExperimentConfig(dataset="usps_like", gamma=0.4)
        replaced = config.replace(epsilon=0.5)
        assert replaced.dataset == "usps_like"
        assert replaced.gamma == 0.4

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            ExperimentConfig().replace(gamma=2.0)


class TestSerialization:
    def test_to_dict_contains_every_field(self):
        config = ExperimentConfig()
        data = config.to_dict()
        assert data["dataset"] == "mnist_like"
        assert data["attack_kwargs"] == {}
        assert set(data) == {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_to_dict_copies_kwargs(self):
        config = ExperimentConfig(attack_kwargs={"scale": 2.0})
        data = config.to_dict()
        data["attack_kwargs"]["scale"] = 99.0
        assert config.attack_kwargs == {"scale": 2.0}

    def test_from_dict_round_trip(self):
        config = ExperimentConfig(dataset="usps_like", epsilon=None, gamma=0.4)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    # engine_kwargs: a retired key that old config files may still carry.
    @pytest.mark.parametrize("key", ["datasets", "engine_kwargs"])
    def test_from_dict_rejects_unknown_keys(self, key):
        with pytest.raises(TypeError) as excinfo:
            ExperimentConfig.from_dict({"dataset": "usps_like", key: {}})
        assert key in str(excinfo.value)

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(TypeError):
            ExperimentConfig.from_dict(["dataset"])  # type: ignore[arg-type]

    def test_from_dict_validates_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"gamma": 2.0})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(TypeError):
            ExperimentConfig.from_json("[1, 2]")

    def test_json_is_stable_and_parseable(self):
        text = ExperimentConfig().to_json()
        assert json.loads(text)["dataset"] == "mnist_like"
        assert ExperimentConfig().to_json() == text

    @pytest.mark.parametrize("key", sorted(ALL_PRESETS), ids=str)
    def test_every_preset_round_trips_via_dict(self, key):
        config = ALL_PRESETS[key]
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("key", sorted(ALL_PRESETS), ids=str)
    def test_every_preset_round_trips_via_json(self, key):
        config = ALL_PRESETS[key]
        restored = ExperimentConfig.from_json(config.to_json())
        assert restored == config
        # Exactness, field by field (== on the dataclass already implies
        # this; spelled out so a failure names the offending field).
        for field_name, value in config.to_dict().items():
            assert getattr(restored, field_name) == value, field_name

    def test_backend_fields_survive_json_round_trip(self):
        config = ExperimentConfig(
            backend="threaded", backend_kwargs={"max_workers": 4}
        )
        restored = ExperimentConfig.from_json(config.to_json())
        assert restored.backend == "threaded"
        assert restored.backend_kwargs == {"max_workers": 4}
        assert ExperimentConfig().backend == "serial"

    def test_kwargs_survive_json_round_trip(self):
        config = benchmark_preset(
            attack="gaussian",
            byzantine_fraction=0.4,
            attack_kwargs={"scale": 1.5},
            defense_kwargs={"ks_significance": 0.01, "use_second_stage": False},
        )
        restored = ExperimentConfig.from_json(config.to_json())
        assert restored.attack_kwargs == {"scale": 1.5}
        assert restored.defense_kwargs == {
            "ks_significance": 0.01,
            "use_second_stage": False,
        }


class TestFaultFields:
    def test_defaults_are_fault_free(self):
        config = ExperimentConfig()
        assert config.faults == "none"
        assert config.faults_kwargs == {}
        assert config.min_quorum == 1
        assert config.retry_kwargs == {}

    def test_fault_fields_survive_json_round_trip(self):
        config = ExperimentConfig(
            faults="chaos",
            faults_kwargs={"dropout": 0.2, "crash": 0.1},
            min_quorum=0.25,
            retry_kwargs={"max_attempts": 4},
        )
        restored = ExperimentConfig.from_json(config.to_json())
        assert restored.faults == "chaos"
        assert restored.faults_kwargs == {"dropout": 0.2, "crash": 0.1}
        assert restored.min_quorum == pytest.approx(0.25)
        assert restored.retry_kwargs == {"max_attempts": 4}

    @pytest.mark.parametrize("bad", [0, -2, 0.0, 1.5, -0.1])
    def test_invalid_min_quorum_rejected(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(min_quorum=bad)

    def test_boolean_min_quorum_rejected(self):
        with pytest.raises(TypeError):
            ExperimentConfig(min_quorum=True)
