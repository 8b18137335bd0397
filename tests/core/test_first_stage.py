"""Tests for FirstAGG (Algorithm 2): norm test + KS test.

FirstAGG takes the round's upload matrix; a single upload is the one-row
matrix, so ``accepts_batch(upload)[0]`` is its decision and
``inspect_batch(upload)`` its report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.first_stage import FirstStageFilter


DIMENSION = 3000
SIGMA = 0.25


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(31)


@pytest.fixture
def first_stage() -> FirstStageFilter:
    return FirstStageFilter(sigma=SIGMA, dimension=DIMENSION)


def benign_upload(rng: np.random.Generator, signal_scale: float = 0.02) -> np.ndarray:
    """An upload dominated by DP noise plus a small signal component."""
    signal = rng.normal(size=DIMENSION)
    signal *= signal_scale / np.linalg.norm(signal)
    return signal + rng.normal(0.0, SIGMA, size=DIMENSION)


class TestConstruction:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            FirstStageFilter(sigma=0.0, dimension=10)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            FirstStageFilter(sigma=1.0, dimension=0)

    def test_norm_bounds_bracket_expectation(self, first_stage):
        low, high = first_stage.norm_bounds()
        assert low < SIGMA**2 * DIMENSION < high


class TestAcceptance:
    def test_accepts_pure_dp_noise(self, rng, first_stage):
        uploads = np.vstack([rng.normal(0.0, SIGMA, size=DIMENSION) for _ in range(30)])
        # a benign upload is rejected only rarely
        assert first_stage.accepts_batch(uploads).sum() >= 27

    def test_accepts_noise_dominated_honest_upload(self, rng, first_stage):
        uploads = np.vstack([benign_upload(rng) for _ in range(30)])
        assert first_stage.accepts_batch(uploads).sum() >= 27

    def test_rejects_zero_vector(self, first_stage):
        assert not first_stage.accepts_batch(np.zeros(DIMENSION))[0]

    def test_rejects_large_norm_upload(self, rng, first_stage):
        upload = rng.normal(0.0, SIGMA * 1.5, size=DIMENSION)
        assert not first_stage.accepts_batch(upload)[0]

    def test_rejects_small_norm_upload(self, rng, first_stage):
        upload = rng.normal(0.0, SIGMA * 0.5, size=DIMENSION)
        assert not first_stage.accepts_batch(upload)[0]

    def test_rejects_shifted_noise(self, rng, first_stage):
        """Correct norm but wrong shape: a mean shift is caught by the KS test."""
        upload = rng.normal(0.0, SIGMA, size=DIMENSION) + 0.3 * SIGMA
        # Rescale so the norm test alone would pass.
        target_norm = SIGMA * np.sqrt(DIMENSION)
        upload = upload / np.linalg.norm(upload) * target_norm
        report = first_stage.inspect_batch(upload)
        assert report.norm_ok[0]
        assert not report.ks_ok[0]
        assert not report.accepted[0]

    def test_rejects_sparse_spike_upload(self, rng, first_stage):
        """All mass on a few coordinates: right norm, wrong distribution."""
        upload = np.zeros(DIMENSION)
        spikes = rng.choice(DIMENSION, size=10, replace=False)
        upload[spikes] = SIGMA * np.sqrt(DIMENSION / 10)
        report = first_stage.inspect_batch(upload)
        assert report.norm_ok[0]
        assert not report.accepted[0]

    def test_rejects_uniform_coordinates(self, rng, first_stage):
        """Uniformly distributed coordinates with the right norm are rejected."""
        upload = rng.uniform(-1.0, 1.0, size=DIMENSION)
        upload *= SIGMA * np.sqrt(DIMENSION) / np.linalg.norm(upload)
        assert not first_stage.accepts_batch(upload)[0]

    def test_rejects_large_honest_gradient_without_noise(self, rng, first_stage):
        """A raw (un-noised) normalised gradient does not look like DP noise."""
        gradient = rng.normal(size=DIMENSION)
        gradient /= np.linalg.norm(gradient)
        assert not first_stage.accepts_batch(gradient)[0]


class TestMaskAndReport:
    """Algorithm 2's zeroed matrix is the mask applied at the caller."""

    def test_accepted_upload_is_kept(self, rng, first_stage):
        upload = rng.normal(0.0, SIGMA, size=(1, DIMENSION))
        accepted = first_stage.accepts_batch(upload)
        if accepted[0]:
            zeroed = np.where(accepted[:, np.newaxis], upload, 0.0)
            np.testing.assert_array_equal(zeroed, upload)

    def test_rejected_upload_is_zeroed(self, first_stage):
        rejected = np.ones((1, DIMENSION)) * 10.0
        accepted = first_stage.accepts_batch(rejected)
        assert not accepted[0]
        np.testing.assert_array_equal(np.where(accepted[:, np.newaxis], rejected, 0.0), 0.0)

    def test_mask_preserves_count_and_order(self, rng, first_stage):
        uploads = np.vstack([
            rng.normal(0.0, SIGMA, size=(3, DIMENSION)),
            np.ones((1, DIMENSION)) * 5.0,  # clearly malicious
        ])
        accepted = first_stage.accepts_batch(uploads)
        assert accepted.shape == (4,)
        assert not accepted[3]
        zeroed = np.where(accepted[:, np.newaxis], uploads, 0.0)
        np.testing.assert_array_equal(zeroed[3], 0.0)

    def test_rejects_wrong_shape(self, first_stage):
        for call in (first_stage.inspect_batch, first_stage.accepts_batch):
            with pytest.raises(ValueError):
                call(np.zeros(DIMENSION + 1))
            with pytest.raises(ValueError):
                call(np.zeros((2, 1, DIMENSION)))

    def test_report_fields_consistent(self, rng, first_stage):
        upload = rng.normal(0.0, SIGMA, size=DIMENSION)
        report = first_stage.inspect_batch(upload)
        assert report.accepted[0] == (report.norm_ok[0] and report.ks_ok[0])
        assert report.squared_norms[0] == pytest.approx(float(upload @ upload))
        assert 0.0 <= report.ks_pvalues[0] <= 1.0


class TestTheorem2Helpers:
    def test_critical_statistic_positive_and_small(self, first_stage):
        critical = first_stage.critical_ks_statistic()
        assert 0.0 < critical < 0.1  # narrow band for d = 3000

    def test_coordinate_interval_contains_gaussian_quantile(self, rng, first_stage):
        """Order statistics of accepted noise satisfy the Theorem 2 envelope."""
        upload = rng.normal(0.0, SIGMA, size=DIMENSION)
        assert first_stage.accepts_batch(upload)[0]
        ordered = np.sort(upload)
        for k in (1, DIMENSION // 4, DIMENSION // 2, 3 * DIMENSION // 4, DIMENSION):
            low, high = first_stage.coordinate_interval(k)
            assert low <= ordered[k - 1] <= high

    def test_attack_confined_to_subspace(self, rng, first_stage):
        """Any accepted upload respects the Theorem 2 order-statistic envelope.

        This is the paper's Byzantine-resilience statement for the first
        stage: the attacker can only play vectors inside a Gaussian-shaped
        subspace, so its norm (and hence its damage) is bounded.
        """
        candidates = np.vstack([
            rng.normal(0.0, SIGMA, size=DIMENSION) * rng.uniform(0.9, 1.1)
            for _ in range(200)
        ])
        accepted = first_stage.accepts_batch(candidates)
        assert accepted.any()
        for candidate in candidates[accepted]:
            ordered = np.sort(candidate)
            for k in (1, DIMENSION // 2, DIMENSION):
                low, high = first_stage.coordinate_interval(k)
                assert low - 1e-9 <= ordered[k - 1] <= high + 1e-9
