"""Tests for the DP / protocol configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.core.config import DPConfig, ProtocolConfig


class TestDPConfig:
    def test_defaults_match_paper(self):
        config = DPConfig()
        assert config.batch_size == 16
        assert config.momentum == pytest.approx(0.1)
        assert config.bounding == "normalize"

    def test_frozen(self):
        config = DPConfig()
        with pytest.raises(Exception):
            config.sigma = 2.0  # type: ignore[misc]

    def test_zero_sigma_allowed_for_non_private_runs(self):
        assert DPConfig(sigma=0.0).sigma == 0.0

    def test_clip_mode(self):
        config = DPConfig(bounding="clip", clip_norm=2.0)
        assert config.bounding == "clip"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"batch_size": -4},
            {"sigma": -0.1},
            {"momentum": 1.0},
            {"momentum": -0.2},
            {"bounding": "median"},
            {"clip_norm": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DPConfig(**kwargs)


class TestProtocolConfig:
    def test_defaults_match_paper(self):
        config = ProtocolConfig()
        assert config.gamma == pytest.approx(0.5)
        assert config.ks_significance == pytest.approx(0.05)
        assert config.norm_k == pytest.approx(3.0)
        assert config.use_first_stage and config.use_second_stage

    def test_ablation_switches(self):
        config = ProtocolConfig(use_first_stage=False, use_second_stage=True)
        assert not config.use_first_stage

    def test_gamma_one_allowed(self):
        assert ProtocolConfig(gamma=1.0).gamma == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gamma": 0.0},
            {"gamma": 1.5},
            {"ks_significance": 0.0},
            {"ks_significance": 1.0},
            {"norm_k": 0.0},
            {"gamma": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolConfig(**kwargs)
