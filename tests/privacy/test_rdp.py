"""Tests for the Rényi-DP analysis of the subsampled Gaussian mechanism."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.rdp import DEFAULT_ORDERS, compute_rdp, rdp_to_epsilon
from tests.privacy import rdp_oracle


class TestAgainstScalarOracle:
    """The vectorised evaluation against the per-order ``log_add`` loop."""

    @settings(max_examples=80, deadline=None)
    @given(
        q=st.floats(1e-6, 0.999),
        sigma=st.floats(0.05, 100.0),
        steps=st.integers(1, 1000),
        orders=st.lists(st.sampled_from(DEFAULT_ORDERS), max_size=6, unique=True),
    )
    def test_matches_oracle_to_1e_12(self, q, sigma, steps, orders):
        """Within 1e-12 of the oracle, relative to the terms the sum cancels.

        For small ``q`` and large ``sigma`` an order's RDP is a small
        difference of its largest log term (about ``alpha log(1 - q)``)
        and the log of the rest, so both implementations round to ulps of
        that term, not of the result; elsewhere the bound is relative.
        """
        orders = sorted({*orders, 512})
        expected = rdp_oracle.compute_rdp(q, sigma, steps, orders)
        actual = compute_rdp(q, sigma, steps, orders)
        for value, reference, order in zip(actual, expected, orders):
            cancelled = steps * order * -math.log1p(-q) / (order - 1)
            assert abs(value - reference) <= 1e-12 * max(abs(reference), cancelled)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 7.5])
    def test_edge_rates_equal_oracle(self, q, sigma):
        orders = [2, 3, 64, 512]
        assert compute_rdp(q, sigma, 40, orders) == rdp_oracle.compute_rdp(
            q, sigma, 40, orders
        )

    def test_orders_as_list_or_tuple(self):
        as_list = compute_rdp(0.05, 1.3, 38, list(DEFAULT_ORDERS))
        assert as_list == compute_rdp(0.05, 1.3, 38, DEFAULT_ORDERS)

    def test_repeat_after_other_sigma_is_identical(self):
        """The cached term table is shared across calls and never written."""
        first = compute_rdp(0.05, 1.3, 38)
        compute_rdp(0.05, 0.2, 38)
        assert compute_rdp(0.05, 1.3, 38) == first


class TestComputeRdp:
    def test_zero_sampling_rate_gives_zero_rdp(self):
        rdp = compute_rdp(q=0.0, sigma=1.0, steps=100, orders=(2, 4, 8))
        assert all(value == 0.0 for value in rdp)

    def test_zero_steps_gives_zero_rdp(self):
        rdp = compute_rdp(q=0.01, sigma=1.0, steps=0, orders=(2, 4))
        assert all(value == 0.0 for value in rdp)

    def test_full_sampling_matches_plain_gaussian(self):
        """q = 1 reduces to the unamplified Gaussian mechanism alpha/(2 sigma^2)."""
        sigma = 2.0
        orders = (2, 8, 32)
        rdp = compute_rdp(q=1.0, sigma=sigma, steps=1, orders=orders)
        for value, order in zip(rdp, orders):
            assert value == pytest.approx(order / (2.0 * sigma**2), rel=1e-9)

    def test_linear_in_steps(self):
        one = compute_rdp(q=0.02, sigma=1.1, steps=1, orders=(4,))[0]
        many = compute_rdp(q=0.02, sigma=1.1, steps=500, orders=(4,))[0]
        assert many == pytest.approx(500 * one, rel=1e-9)

    def test_monotone_decreasing_in_sigma(self):
        small_noise = compute_rdp(q=0.01, sigma=0.8, steps=10, orders=(8,))[0]
        large_noise = compute_rdp(q=0.01, sigma=3.0, steps=10, orders=(8,))[0]
        assert large_noise < small_noise

    def test_monotone_increasing_in_q(self):
        small_q = compute_rdp(q=0.001, sigma=1.0, steps=10, orders=(8,))[0]
        large_q = compute_rdp(q=0.1, sigma=1.0, steps=10, orders=(8,))[0]
        assert small_q < large_q

    def test_subsampling_amplifies_privacy(self):
        """RDP with q < 1 must be smaller than the unamplified bound."""
        sigma, order = 1.5, 16
        subsampled = compute_rdp(q=0.05, sigma=sigma, steps=1, orders=(order,))[0]
        full = order / (2.0 * sigma**2)
        assert subsampled < full

    def test_nonnegative(self):
        rdp = compute_rdp(q=0.02, sigma=1.0, steps=7, orders=DEFAULT_ORDERS)
        assert all(value >= 0.0 for value in rdp)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            compute_rdp(q=1.5, sigma=1.0, steps=1)
        with pytest.raises(ValueError):
            compute_rdp(q=-0.1, sigma=1.0, steps=1)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            compute_rdp(q=0.1, sigma=0.0, steps=1)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            compute_rdp(q=0.1, sigma=1.0, steps=-1)

    def test_rejects_fractional_orders(self):
        with pytest.raises(ValueError):
            compute_rdp(q=0.1, sigma=1.0, steps=1, orders=(2.5,))

    def test_rejects_order_below_two(self):
        with pytest.raises(ValueError):
            compute_rdp(q=0.1, sigma=1.0, steps=1, orders=(1,))

    def test_small_q_quadratic_scaling(self):
        """For tiny q, the per-step RDP scales like q^2 (privacy amplification)."""
        sigma, alpha = 1.0, 4
        value_q = compute_rdp(q=1e-4, sigma=sigma, steps=1, orders=(alpha,))[0]
        value_half_q = compute_rdp(q=5e-5, sigma=sigma, steps=1, orders=(alpha,))[0]
        assert value_q / value_half_q == pytest.approx(4.0, rel=0.05)


class TestRdpToEpsilon:
    def test_conversion_formula_single_order(self):
        rdp, order, delta = [0.5], (10,), 1e-5
        epsilon, best = rdp_to_epsilon(rdp, order, delta)
        assert best == 10
        assert epsilon == pytest.approx(0.5 + math.log(1.0 / delta) / 9.0)

    def test_picks_the_best_order(self):
        orders = (2, 64)
        rdp = [0.01, 0.9]
        delta = 1e-3
        epsilon, best = rdp_to_epsilon(rdp, orders, delta)
        candidates = {
            order: value + math.log(1.0 / delta) / (order - 1)
            for value, order in zip(rdp, orders)
        }
        assert epsilon == pytest.approx(min(candidates.values()))
        assert best == min(candidates, key=candidates.get)

    def test_smaller_delta_larger_epsilon(self):
        rdp = compute_rdp(q=0.02, sigma=1.0, steps=100)
        eps_loose, _ = rdp_to_epsilon(rdp, DEFAULT_ORDERS, delta=1e-3)
        eps_tight, _ = rdp_to_epsilon(rdp, DEFAULT_ORDERS, delta=1e-7)
        assert eps_tight > eps_loose

    def test_more_steps_larger_epsilon(self):
        few = compute_rdp(q=0.02, sigma=1.0, steps=10)
        many = compute_rdp(q=0.02, sigma=1.0, steps=1000)
        eps_few, _ = rdp_to_epsilon(few, DEFAULT_ORDERS, 1e-5)
        eps_many, _ = rdp_to_epsilon(many, DEFAULT_ORDERS, 1e-5)
        assert eps_many > eps_few

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            rdp_to_epsilon([0.1], (2,), delta=0.0)
        with pytest.raises(ValueError):
            rdp_to_epsilon([0.1], (2,), delta=1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            rdp_to_epsilon([0.1, 0.2], (2,), delta=1e-5)

    @pytest.mark.parametrize("orders", [[0.5, 2], [1, 2], [2, 2.5], [0, 3], [-4, 8]])
    def test_rejects_orders_compute_rdp_rejects(self, orders):
        """Orders below 2 gave a negative ε, or divided by zero at order 1."""
        with pytest.raises(ValueError, match="integers >= 2"):
            rdp_to_epsilon([0.1, 0.2], orders, 1e-5)

    def test_rejects_empty_orders(self):
        with pytest.raises(ValueError):
            rdp_to_epsilon([], [], 1e-5)

    def test_integral_float_orders_are_accepted(self):
        assert rdp_to_epsilon([0.5], [10.0], 1e-5) == rdp_to_epsilon([0.5], [10], 1e-5)

    def test_epsilon_positive(self):
        rdp = compute_rdp(q=0.05, sigma=2.0, steps=50)
        epsilon, _ = rdp_to_epsilon(rdp, DEFAULT_ORDERS, 1e-5)
        assert epsilon > 0.0

    def test_reference_magnitude_against_known_setting(self):
        """A classic DP-SGD setting lands in the expected epsilon ballpark.

        q = 256/60000, sigma = 1.1, T = 10 epochs (~2344 steps), delta = 1e-5
        is known (Abadi et al.-style accounting) to give epsilon of a few
        units; the RDP bound should be in (1, 10).
        """
        q = 256 / 60000
        steps = int(10 * 60000 / 256)
        rdp = compute_rdp(q=q, sigma=1.1, steps=steps)
        epsilon, _ = rdp_to_epsilon(rdp, DEFAULT_ORDERS, delta=1e-5)
        assert 1.0 < epsilon < 10.0
