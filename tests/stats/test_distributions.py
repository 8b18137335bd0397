"""Tests for the Gaussian CDF / quantile helpers (cross-checked against SciPy)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.stats.distributions import normal_cdf, normal_ppf, normal_quantiles


class TestNormalCdf:
    def test_matches_scipy_standard_normal(self):
        x = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(normal_cdf(x), scipy_stats.norm.cdf(x), atol=1e-12)

    def test_matches_scipy_scaled(self):
        x = np.linspace(-3, 3, 51)
        np.testing.assert_allclose(
            normal_cdf(x, sigma=2.5), scipy_stats.norm.cdf(x, scale=2.5), atol=1e-12
        )

    def test_matches_scipy_shifted(self):
        x = np.linspace(-3, 7, 51)
        np.testing.assert_allclose(
            normal_cdf(x, sigma=1.5, mu=2.0),
            scipy_stats.norm.cdf(x, loc=2.0, scale=1.5),
            atol=1e-12,
        )

    def test_symmetry(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert float(normal_cdf(1.3)) == pytest.approx(1.0 - float(normal_cdf(-1.3)))

    def test_monotone(self):
        x = np.linspace(-4, 4, 200)
        values = normal_cdf(x, sigma=0.7)
        assert np.all(np.diff(values) >= 0)

    def test_scalar_input(self):
        assert float(normal_cdf(0.0, sigma=3.0)) == pytest.approx(0.5)

    def test_is_math_erf_elementwise(self):
        """The same floats whether or not SciPy is installed."""
        x = np.linspace(-6.0, 6.0, 1001)
        expected = [0.5 * (1.0 + math.erf(v / (1.3 * math.sqrt(2.0)))) for v in x]
        np.testing.assert_array_equal(normal_cdf(x, sigma=1.3), expected)
        buffer = x.reshape(7, 143).copy()
        result = normal_cdf(buffer, sigma=1.3, out=buffer)
        assert result is buffer
        np.testing.assert_array_equal(buffer.ravel(), expected)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            normal_cdf(0.0, sigma=0.0)


class TestNormalPpf:
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])
    def test_matches_scipy(self, p):
        assert normal_ppf(p) == pytest.approx(scipy_stats.norm.ppf(p), abs=1e-7)

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_matches_scipy_scaled(self, p):
        assert normal_ppf(p, sigma=3.0, mu=-1.0) == pytest.approx(
            scipy_stats.norm.ppf(p, loc=-1.0, scale=3.0), abs=1e-6
        )

    def test_median_is_mean(self):
        assert normal_ppf(0.5, sigma=2.0, mu=7.0) == pytest.approx(7.0, abs=1e-9)

    def test_is_inverse_of_cdf(self):
        for p in (0.02, 0.3, 0.7, 0.98):
            assert float(normal_cdf(normal_ppf(p, sigma=1.7), sigma=1.7)) == pytest.approx(
                p, abs=1e-8
            )

    def test_rejects_p_outside_open_interval(self):
        with pytest.raises(ValueError):
            normal_ppf(0.0)
        with pytest.raises(ValueError):
            normal_ppf(1.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            normal_ppf(0.5, sigma=-1.0)

    def test_extreme_tails_are_finite(self):
        assert np.isfinite(normal_ppf(1e-9))
        assert np.isfinite(normal_ppf(1.0 - 1e-9))

    @pytest.mark.parametrize(
        "p, expected",
        [(1e-300, "-0x1.28607406c74fep+5"), (1e-9, "-0x1.7fdc11f49a6b6p+2"),
         (0.001, "-0x1.8b8cbb6ee2822p+1"), (0.02, "-0x1.06e13e872e8e3p+1"),
         (0.02425, "-0x1.f913f9ae19f39p+0"), (0.1, "-0x1.4813c3681e9f4p+0"),
         (0.5, "0x0.0p+0"), (0.8, "0x1.aee8fa6c5c2d2p-1"),
         (0.97575, "0x1.f913f9ae19f39p+0"), (0.99, "0x1.29c5c463cecf2p+1"),
         (1.0 - 1e-9, "0x1.7fdc11f98931dp+2")],
    )
    def test_pinned_bit_for_bit(self, p, expected):
        """alittle's z feeds seeded fingerprints, so the scalar keeps its floats."""
        assert normal_ppf(p).hex() == expected


class TestNormalQuantiles:
    def test_matches_scalar(self):
        p = np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 2001), np.geomspace(1e-300, 0.02, 200)])
        vectorised = normal_quantiles(p, sigma=1.7)
        scalar = np.array([normal_ppf(value, sigma=1.7) for value in p])
        np.testing.assert_allclose(vectorised, scalar, rtol=4 * np.finfo(np.float64).eps, atol=0)
        # No logarithm in the central region: the very same floats.
        central = (p >= 0.02425) & (p <= 1.0 - 0.02425)
        np.testing.assert_array_equal(vectorised[central], scalar[central])

    def test_closed_interval_ends_are_infinite_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = normal_quantiles(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]))
        assert z.tolist() == [-np.inf, -np.inf, 0.0, np.inf, np.inf]

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            normal_quantiles(np.array([0.5]), sigma=0.0)
