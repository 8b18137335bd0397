"""Property tests: the batched/vectorized hot paths match their references.

FirstAGG's rank-bound mask (``FirstStageFilter.accepts_batch``) must equal
the exact p-value mask of ``inspect_batch``, on the whole matrix and on
each row alone (a single upload is a one-row matrix).  The second stage's
one matvec plus ``SecondStageSelector.select_scored``, keyed by a full
cohort's ids ``np.arange(n)``, must make the same selections as a
per-upload scalar implementation.  Inputs are generated
from Hypothesis-drawn seeds/shapes through a continuous RNG, so score ties
across *distinct* rows have probability zero and decision equality is
exact.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.first_stage import FirstStageFilter
from repro.core.second_stage import SecondStageSelector
from repro.stats.ks import kolmogorov_survival, ks_pvalues, ks_statistics

SIGMA = 0.3

# Per-row norm multipliers: 0 produces an all-zero row, 1 a benign-looking
# row, the others rows that fail the norm test in either direction.
row_scales = st.sampled_from([0.0, 0.3, 1.0, 1.0, 1.0, 2.5])


def reference_select(
    accumulated: np.ndarray, uploads: np.ndarray, server_gradient: np.ndarray, keep: int
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """The seed's scalar second stage: per-upload dots, full sorts, stable argsort."""
    scores = np.array(
        [float(np.dot(upload, server_gradient)) for upload in uploads],
        dtype=np.float64,
    )
    top = np.sort(scores)[::-1][:keep]
    threshold = float(np.mean(top))
    round_scores = np.where(scores < threshold, 0.0, scores)
    accumulated = accumulated + round_scores
    order = np.argsort(-accumulated, kind="stable")
    selected = np.sort(order[:keep])
    return scores, threshold, selected, accumulated


class TestFirstStageEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 10),
        d=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        scales=st.lists(row_scales, min_size=1, max_size=10),
    )
    def test_batch_mask_and_filter_match_exact_reference(self, n, d, seed, scales):
        rng = np.random.default_rng(seed)
        multipliers = np.array((scales * n)[:n], dtype=np.float64)
        uploads = rng.normal(0.0, SIGMA, size=(n, d)) * multipliers[:, None]
        first_stage = FirstStageFilter(sigma=SIGMA, dimension=d)

        accepted = first_stage.accepts_batch(uploads)
        expected_mask = first_stage.inspect_batch(uploads).accepted
        one_row_masks = np.array([first_stage.inspect_batch(row).accepted[0] for row in uploads])
        expected_filtered = np.vstack([
            row if keep else np.zeros(d) for row, keep in zip(uploads, one_row_masks)
        ])

        np.testing.assert_array_equal(accepted, expected_mask)
        np.testing.assert_array_equal(accepted, one_row_masks)
        zeroed = np.where(accepted[:, np.newaxis], uploads, 0.0)  # Algorithm 2
        np.testing.assert_array_equal(zeroed, expected_filtered)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 8), d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_batched_ks_statistics_match_one_row_calls(self, n, d, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(0.0, 1.0, size=(n, d))
        batched = ks_statistics(samples, sigma=1.0)
        for i in range(n):
            assert batched[i] == ks_statistics(samples[i:i + 1], sigma=1.0)[0]

    def test_all_rejected_round(self):
        first_stage = FirstStageFilter(sigma=SIGMA, dimension=500)
        uploads = np.full((5, 500), 10.0)
        accepted = first_stage.accepts_batch(uploads)
        assert not accepted.any()
        np.testing.assert_array_equal(np.where(accepted[:, np.newaxis], uploads, 0.0), 0.0)

    def test_single_upload_round(self):
        rng = np.random.default_rng(3)
        first_stage = FirstStageFilter(sigma=SIGMA, dimension=800)
        upload = rng.normal(0.0, SIGMA, size=(1, 800))
        accepted = first_stage.accepts_batch(upload)
        assert accepted.shape == (1,)
        assert accepted[0] == first_stage.inspect_batch(upload[0]).accepted[0]
        np.testing.assert_array_equal(accepted, first_stage.accepts_batch(upload[0]))


class TestKolmogorovSurvivalVectorized:
    @settings(max_examples=60, deadline=None)
    @given(
        lams=st.lists(
            st.floats(-1.0, 5.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_array_matches_scalars(self, lams):
        batched = kolmogorov_survival(np.array(lams))
        assert isinstance(batched, np.ndarray)
        for value, lam in zip(batched, lams):
            assert value == kolmogorov_survival(lam)

    def test_scalar_returns_float(self):
        assert isinstance(kolmogorov_survival(1.0), float)
        assert kolmogorov_survival(0.0) == 1.0

    def test_shape_preserved(self):
        lams = np.linspace(0.1, 2.0, 12).reshape(3, 4)
        assert kolmogorov_survival(lams).shape == (3, 4)

    @settings(max_examples=40, deadline=None)
    @given(
        stats=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=10),
        d=st.integers(1, 10_000),
    )
    def test_ks_pvalues_match_scalar_correction(self, stats, d):
        batched = ks_pvalues(np.array(stats), d)
        sqrt_d = math.sqrt(d)
        for pvalue, statistic in zip(batched, stats):
            lam = (sqrt_d + 0.12 + 0.11 / sqrt_d) * statistic
            assert pvalue == kolmogorov_survival(lam)


class TestSecondStageEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        gamma=st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]),
        rounds=st.integers(1, 4),
    )
    def test_select_matches_scalar_reference_across_rounds(
        self, n, d, seed, gamma, rounds
    ):
        rng = np.random.default_rng(seed)
        selector = SecondStageSelector(n_workers=n, gamma=gamma)
        reference_accumulated = np.zeros(n)
        for _ in range(rounds):
            uploads = rng.normal(size=(n, d))
            server_gradient = rng.normal(size=d)
            report = selector.select_scored(uploads @ server_gradient, np.arange(n))
            scores, threshold, selected, reference_accumulated = reference_select(
                reference_accumulated, uploads, server_gradient, selector.keep
            )
            np.testing.assert_allclose(report.scores, scores, rtol=1e-9, atol=1e-12)
            assert report.threshold == pytest.approx(threshold, rel=1e-9, abs=1e-12)
            np.testing.assert_array_equal(report.selected, selected)
            np.testing.assert_allclose(
                report.accumulated, reference_accumulated, rtol=1e-9, atol=1e-12
            )

    def test_zero_server_gradient(self):
        rng = np.random.default_rng(11)
        selector = SecondStageSelector(n_workers=6, gamma=0.5)
        scores = rng.normal(size=(6, 20)) @ np.zeros(20)
        report = selector.select_scored(scores, np.arange(6))
        np.testing.assert_array_equal(report.scores, 0.0)
        assert report.threshold == 0.0
        # All scores tie at zero: the stable rule keeps the lowest indices.
        np.testing.assert_array_equal(report.selected, [0, 1, 2])

    def test_all_uploads_zeroed_by_first_stage(self):
        selector = SecondStageSelector(n_workers=4, gamma=0.5)
        report = selector.select_scored(np.zeros((4, 10)) @ np.ones(10), np.arange(4))
        np.testing.assert_array_equal(report.scores, 0.0)
        np.testing.assert_array_equal(report.selected, [0, 1])

    def test_single_worker(self):
        rng = np.random.default_rng(5)
        selector = SecondStageSelector(n_workers=1, gamma=1.0)
        uploads = rng.normal(size=(1, 15))
        gradient = rng.normal(size=15)
        report = selector.select_scored(uploads @ gradient, np.arange(selector.n_workers))
        np.testing.assert_array_equal(report.selected, [0])
        assert report.threshold == pytest.approx(float(uploads[0] @ gradient))

    def test_nan_scores_still_select_keep_workers(self):
        """Non-finite uploads (reachable when FirstAGG is off) must not
        shrink the selection below ``keep``; behavior matches the stable
        argsort of the scalar reference."""
        rng = np.random.default_rng(21)
        uploads = rng.normal(size=(5, 8))
        uploads[1, 0] = np.nan
        uploads[4, 3] = np.nan
        gradient = rng.normal(size=8)
        selector = SecondStageSelector(n_workers=5, gamma=0.6)
        report = selector.select_scored(uploads @ gradient, np.arange(selector.n_workers))
        _, _, expected, _ = reference_select(
            np.zeros(5), uploads, gradient, selector.keep
        )
        assert len(report.selected) == selector.keep
        np.testing.assert_array_equal(report.selected, expected)

    def test_gamma_one_keeps_everyone(self):
        rng = np.random.default_rng(9)
        selector = SecondStageSelector(n_workers=5, gamma=1.0)
        scores = rng.normal(size=(5, 8)) @ rng.normal(size=8)
        report = selector.select_scored(scores, np.arange(5))
        np.testing.assert_array_equal(report.selected, np.arange(5))
