"""Tests for the one-sample Kolmogorov-Smirnov machinery (Section 4.3, Theorem 2).

The statistics and p-values are batched over the rows of a sample matrix;
one sample is the one-row matrix.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from repro.stats.ks import (
    RANK_BAND,
    KSRankBounds,
    KSWorkspace,
    critical_statistic,
    kolmogorov_survival,
    ks_envelopes,
    ks_pvalues,
    ks_statistics,
    theorem2_interval,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(99)


def one_row(samples: np.ndarray) -> np.ndarray:
    return np.asarray(samples, dtype=np.float64)[np.newaxis, :]


class TestKsStatistic:
    def test_matches_scipy_standard(self, rng):
        samples = rng.normal(size=500)
        ours = ks_statistics(one_row(samples), sigma=1.0)[0]
        theirs = scipy_stats.kstest(samples, "norm").statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_matches_scipy_scaled(self, rng):
        samples = rng.normal(scale=2.3, size=800)
        ours = ks_statistics(one_row(samples), sigma=2.3)[0]
        theirs = scipy_stats.kstest(samples, "norm", args=(0.0, 2.3)).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_rows_match_scipy(self, rng):
        samples = rng.normal(scale=0.8, size=(5, 300))
        ours = ks_statistics(samples, sigma=0.8)
        theirs = [scipy_stats.kstest(row, "norm", args=(0.0, 0.8)).statistic for row in samples]
        np.testing.assert_allclose(ours, theirs, rtol=0.0, atol=1e-12)

    def test_statistic_in_unit_interval(self, rng):
        statistics = ks_statistics(rng.normal(size=(4, 100)), sigma=1.0)
        assert np.all((0.0 <= statistics) & (statistics <= 1.0))

    def test_large_for_wrong_scale(self, rng):
        samples = rng.normal(scale=5.0, size=1000)
        assert ks_statistics(one_row(samples), sigma=1.0)[0] > 0.3

    def test_large_for_shifted_samples(self, rng):
        samples = rng.normal(loc=3.0, size=1000)
        assert ks_statistics(one_row(samples), sigma=1.0)[0] > 0.5

    def test_order_invariant(self, rng):
        samples = rng.normal(size=200)
        shuffled = samples.copy()
        rng.shuffle(shuffled)
        both = ks_statistics(np.vstack([samples, shuffled]), 1.0)
        assert both[0] == pytest.approx(both[1])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ks_statistics(np.empty((1, 0)), sigma=1.0)

    def test_vector_raises(self, rng):
        """A 1-D sample is not lifted: the caller names the one-row matrix."""
        with pytest.raises(ValueError):
            ks_statistics(rng.normal(size=50), sigma=1.0)

    def test_constant_sample_has_large_statistic(self):
        assert ks_statistics(np.zeros((1, 100)), sigma=1.0)[0] == pytest.approx(0.5)


class TestKSWorkspace:
    def test_statistics_match_without_workspace(self, rng):
        samples = rng.normal(size=(6, 300))
        workspace = KSWorkspace()
        for rows in (None, np.array([4, 1]), np.array([-1, -6, 2])):
            np.testing.assert_array_equal(
                ks_statistics(samples, 1.0, workspace=workspace, rows=rows),
                ks_statistics(samples, 1.0, rows=rows),
            )

    def test_difference_buffer_allocated_on_first_use(self, rng):
        """Sorting alone, as FirstAGG does, never allocates the second buffer."""
        samples = rng.normal(size=(5, 200))
        workspace = KSWorkspace()
        ordered = workspace.sort_rows(samples)
        np.testing.assert_array_equal(ordered, np.sort(samples, axis=1))
        assert workspace._scratch is None
        ks_statistics(samples, 1.0, workspace=workspace)
        assert workspace._scratch.shape == (5, 200)

    def test_sort_rows_gathers_without_a_temporary(self, rng):
        """``np.take``'s default mode would buffer the whole gather first."""
        matrix = rng.normal(size=(40, 4096))
        rows = np.arange(0, 40, 2)
        workspace = KSWorkspace()
        workspace.sort_rows(matrix, rows)  # sizes the buffer
        tracemalloc.start()
        try:
            ordered = workspace.sort_rows(matrix, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(ordered, np.sort(matrix[rows], axis=1))
        assert peak < ordered.nbytes / 2

    def test_out_of_range_rows_raise(self, rng):
        samples = rng.normal(size=(6, 50))
        workspace = KSWorkspace()
        for bad in (np.array([0, 6]), np.array([-7])):
            with pytest.raises(IndexError):
                ks_statistics(samples, 1.0, workspace=workspace, rows=bad)
            with pytest.raises(IndexError):
                ks_statistics(samples, 1.0, rows=bad)


class TestKolmogorovSurvival:
    def test_zero_or_negative_argument_gives_one(self):
        assert kolmogorov_survival(0.0) == 1.0
        assert kolmogorov_survival(-1.0) == 1.0

    def test_matches_scipy_kstwobign(self):
        for lam in (0.5, 0.8, 1.0, 1.36, 1.63, 2.0):
            assert kolmogorov_survival(lam) == pytest.approx(
                scipy_stats.kstwobign.sf(lam), abs=1e-9
            )

    def test_matches_scipy_kolmogorov_at_small_arguments(self):
        """Regression: the 100-term alternating series gave Q(0.001) = 0.02."""
        lam = np.geomspace(1e-4, 0.6, 400)
        np.testing.assert_allclose(
            kolmogorov_survival(lam), scipy_special.kolmogorov(lam), rtol=0.0, atol=1e-15
        )
        assert kolmogorov_survival(0.001) == 1.0

    def test_monotone_decreasing(self):
        values = kolmogorov_survival(np.linspace(1e-4, 3.0, 30_000))
        assert np.all(np.diff(values) <= 0.0)

    def test_bounded_in_unit_interval(self):
        for lam in (0.1, 1.0, 5.0):
            assert 0.0 <= kolmogorov_survival(lam) <= 1.0

    def test_known_critical_value(self):
        """Q(1.358) is approximately 0.05 (the classic 5% critical value)."""
        assert kolmogorov_survival(1.358) == pytest.approx(0.05, abs=5e-4)


def pvalues(samples: np.ndarray, sigma: float) -> np.ndarray:
    """KS p-values of every row of ``samples``: statistics, then p-values."""
    return ks_pvalues(ks_statistics(samples, sigma), samples.shape[1])


class TestKsPvalues:
    def test_gaussian_sample_usually_passes(self, rng):
        """Noise drawn from the null distribution should rarely be rejected."""
        samples = np.vstack([rng.normal(scale=1.5, size=2000) for _ in range(40)])
        rejections = int((pvalues(samples, sigma=1.5) < 0.05).sum())
        assert rejections <= 6  # ~5% expected, allow slack

    def test_pvalue_matches_scipy_asymptotic(self, rng):
        samples = rng.normal(size=3000)
        ours = pvalues(one_row(samples), sigma=1.0)[0]
        theirs = scipy_stats.kstest(samples, "norm", mode="asymp")
        assert ours == pytest.approx(theirs.pvalue, abs=2e-2)

    def test_wrong_sigma_is_rejected(self, rng):
        samples = rng.normal(scale=2.0, size=2000)
        assert pvalues(one_row(samples), sigma=1.0)[0] < 1e-6

    def test_uniform_sample_is_rejected(self, rng):
        samples = rng.uniform(-1, 1, size=2000)
        assert pvalues(one_row(samples), sigma=1.0)[0] < 0.01

    def test_result_fields(self, rng):
        samples = rng.normal(size=(3, 64))
        statistics = ks_statistics(samples, sigma=1.0)
        result = ks_pvalues(statistics, 64)
        assert result.shape == statistics.shape == (3,)
        assert np.all((0.0 <= result) & (result <= 1.0))
        assert np.all((0.0 <= statistics) & (statistics <= 1.0))

    def test_rows_are_independent(self, rng):
        """A row's p-value does not depend on the rows beside it."""
        samples = rng.normal(size=(6, 500))
        together = pvalues(samples, sigma=1.0)
        alone = [pvalues(row[np.newaxis, :], sigma=1.0)[0] for row in samples]
        np.testing.assert_array_equal(together, alone)


class TestCriticalStatistic:
    def test_passes_exactly_at_critical_value(self):
        d = 2000
        critical = critical_statistic(d, significance=0.05)
        sqrt_d = np.sqrt(d)
        lam = (sqrt_d + 0.12 + 0.11 / sqrt_d) * critical
        assert kolmogorov_survival(lam) == pytest.approx(0.05, abs=1e-4)

    def test_decreases_with_sample_size(self):
        assert critical_statistic(10_000) < critical_statistic(100)

    def test_stricter_significance_gives_larger_threshold(self):
        assert critical_statistic(1000, 0.01) > critical_statistic(1000, 0.10)

    @pytest.mark.parametrize(
        "d, expected",
        [(1, "0x1.0000000000000p+0"), (650, "0x1.b243241914177p-5"),
         (6570, "0x1.121b2e8709624p-6")],
    )
    def test_pinned_bit_for_bit(self, d, expected):
        """The bisection stops at its fixed point without moving D*."""
        assert critical_statistic(d).hex() == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            critical_statistic(0)
        with pytest.raises(ValueError):
            critical_statistic(100, significance=1.5)


class TestEnvelopes:
    def test_band_contains_cdf(self, rng):
        x = np.linspace(-3, 3, 50)
        upper, lower = ks_envelopes(x, sigma=1.0, d_ks=0.05)
        from repro.stats.distributions import normal_cdf

        cdf = normal_cdf(x)
        assert np.all(upper >= cdf)
        assert np.all(lower <= cdf)

    def test_band_width_is_two_dks_in_interior(self):
        upper, lower = ks_envelopes(np.array([0.0]), sigma=1.0, d_ks=0.03)
        assert float(upper[0] - lower[0]) == pytest.approx(0.06)

    def test_clamped_to_unit_interval(self):
        x = np.array([-10.0, 10.0])
        upper, lower = ks_envelopes(x, sigma=1.0, d_ks=0.2)
        assert np.all(upper <= 1.0)
        assert np.all(lower >= 0.0)


class TestTheorem2Interval:
    def test_interval_is_ordered(self):
        d = 1000
        d_ks = critical_statistic(d)
        for k in (1, 100, 500, 900, 1000):
            low, high = theorem2_interval(k, d, sigma=1.0, d_ks=d_ks)
            assert low < high

    def test_gaussian_order_statistics_satisfy_theorem(self, rng):
        """Order statistics of a genuine Gaussian sample respect the envelope."""
        d = 2000
        sigma = 1.3
        d_ks = critical_statistic(d, 0.05)
        sample = np.sort(rng.normal(scale=sigma, size=d))
        violations = 0
        for k in range(1, d + 1, 50):
            low, high = theorem2_interval(k, d, sigma, d_ks)
            if not low <= sample[k - 1] <= high:
                violations += 1
        assert violations == 0

    def test_extreme_order_statistics_unbounded(self):
        d = 1000
        d_ks = 0.05
        low, _ = theorem2_interval(1, d, sigma=1.0, d_ks=d_ks)
        _, high = theorem2_interval(d, d, sigma=1.0, d_ks=d_ks)
        assert low == -np.inf
        assert high == np.inf

    def test_interior_interval_is_finite(self):
        d = 1000
        low, high = theorem2_interval(500, d, sigma=1.0, d_ks=0.04)
        assert np.isfinite(low) and np.isfinite(high)

    def test_rejects_k_out_of_range(self):
        with pytest.raises(ValueError):
            theorem2_interval(0, 100, 1.0, 0.05)
        with pytest.raises(ValueError):
            theorem2_interval(101, 100, 1.0, 0.05)

    def test_rejects_bad_dks(self):
        with pytest.raises(ValueError):
            theorem2_interval(5, 100, 1.0, 0.0)
        with pytest.raises(ValueError):
            theorem2_interval(5, 100, 1.0, 1.0)

    def test_interval_scales_with_sigma(self):
        low1, high1 = theorem2_interval(500, 1000, sigma=1.0, d_ks=0.04)
        low2, high2 = theorem2_interval(500, 1000, sigma=2.0, d_ks=0.04)
        assert low2 == pytest.approx(2.0 * low1)
        assert high2 == pytest.approx(2.0 * high1)


class TestRankBounds:
    @pytest.mark.parametrize("d", [1, 2, 7, 650, 6570])
    @pytest.mark.parametrize("sigma, significance", [(1e-3, 0.05), (1.0, 0.01), (40.0, 0.5)])
    def test_build_is_warning_free_and_nested(self, d, sigma, significance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bounds = KSRankBounds.build(d, sigma, critical_statistic(d, significance))
        assert np.all(bounds.reject_low <= bounds.accept_low)
        assert np.all(bounds.accept_low <= bounds.accept_high)
        assert np.all(bounds.accept_high <= bounds.reject_high)
        # Every accept bound survived its check, so a sample can be
        # accepted without the exact statistic.
        assert not np.any(bounds.accept_low == np.inf)
        assert not np.any(bounds.accept_high == -np.inf)

    @pytest.mark.parametrize("d", [1, 650, 6570])
    def test_band_edges_straddle_the_significance(self, d):
        """The margins the decisions rely on: p >= alpha below the band, < alpha above."""
        critical = critical_statistic(d)
        inside, outside = ks_pvalues(
            np.array([critical * (1 - RANK_BAND / 2), critical * (1 + RANK_BAND / 2)]), d
        )
        assert inside >= 0.05
        assert outside < 0.05 or critical == 1.0

    def test_decisions_match_the_exact_statistic(self, rng):
        d, sigma = 400, 0.7
        critical = critical_statistic(d)
        bounds = KSRankBounds.build(d, sigma, critical)
        samples = rng.normal(0.0, sigma, size=(300, d)) * rng.uniform(0.9, 1.1, size=(300, 1))
        passed, undecided = bounds.decide(np.sort(samples, axis=1))
        exact = ks_pvalues(ks_statistics(samples, sigma), d) >= 0.05
        assert not undecided.any()
        assert 0 < passed.sum() < len(passed)
        np.testing.assert_array_equal(passed, exact)
