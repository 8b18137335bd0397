"""Property-based tests for the statistical substrate (KS test, norm test, RDP)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.privacy.rdp import compute_rdp, rdp_to_epsilon
from repro.stats.distributions import normal_cdf, normal_ppf
from repro.stats.ks import kolmogorov_survival, ks_pvalues, ks_statistics
from repro.stats.norm_test import norm_interval, squared_norm_interval


samples_strategy = arrays(
    dtype=np.float64,
    shape=st.integers(2, 400),
    elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
)

sigmas = st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(samples=samples_strategy, sigma=sigmas)
def test_ks_statistic_is_in_unit_interval(samples, sigma):
    statistic = ks_statistics(samples[np.newaxis, :], sigma)[0]
    assert 0.0 <= statistic <= 1.0


@settings(max_examples=60, deadline=None)
@given(samples=samples_strategy, sigma=sigmas)
def test_ks_pvalue_is_probability(samples, sigma):
    pvalues = ks_pvalues(ks_statistics(samples[np.newaxis, :], sigma), samples.size)
    assert pvalues.shape == (1,)
    assert 0.0 <= pvalues[0] <= 1.0


@settings(max_examples=60, deadline=None)
@given(samples=samples_strategy, sigma=sigmas, shift=st.floats(-10, 10))
def test_ks_statistic_invariant_to_permutation(samples, sigma, shift):
    shuffled = samples.copy()
    np.random.default_rng(0).shuffle(shuffled)
    statistics = ks_statistics(np.vstack([samples, shuffled]), sigma)
    assert statistics[0] == statistics[1]


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.01, 10.0))
def test_kolmogorov_survival_is_probability(lam):
    assert 0.0 <= kolmogorov_survival(lam) <= 1.0


@settings(max_examples=60, deadline=None)
@given(x=st.floats(-30, 30), sigma=sigmas, mu=st.floats(-5, 5))
def test_normal_cdf_bounded_and_centred(x, sigma, mu):
    value = float(normal_cdf(x, sigma=sigma, mu=mu))
    assert 0.0 <= value <= 1.0
    assert float(normal_cdf(mu, sigma=sigma, mu=mu)) == 0.5


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.001, 0.999), sigma=sigmas)
def test_normal_ppf_inverts_cdf(p, sigma):
    x = normal_ppf(p, sigma=sigma)
    assert float(normal_cdf(x, sigma=sigma)) == np.clip(p, 0, 1).item() or abs(
        float(normal_cdf(x, sigma=sigma)) - p
    ) < 1e-6


@settings(max_examples=60, deadline=None)
@given(sigma=sigmas, dimension=st.integers(1, 100_000), k=st.floats(0.5, 6.0))
def test_squared_norm_interval_is_ordered_and_nonnegative(sigma, dimension, k):
    low, high = squared_norm_interval(sigma, dimension, k)
    assert 0.0 <= low <= high
    assert low <= sigma**2 * dimension <= high or low == 0.0


@settings(max_examples=60, deadline=None)
@given(sigma=sigmas, dimension=st.integers(1, 100_000))
def test_norm_interval_is_sqrt_of_squared(sigma, dimension):
    low, high = norm_interval(sigma, dimension)
    sq_low, sq_high = squared_norm_interval(sigma, dimension)
    assert low * low == np.float64(sq_low) or abs(low * low - sq_low) < 1e-6
    assert abs(high * high - sq_high) < 1e-6 * max(1.0, sq_high)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.0001, 0.5),
    sigma=st.floats(0.5, 10.0),
    steps=st.integers(1, 500),
)
def test_rdp_values_nonnegative_and_monotone_in_order(q, sigma, steps):
    orders = (2, 4, 16, 64)
    rdp = compute_rdp(q=q, sigma=sigma, steps=steps, orders=orders)
    assert all(value >= 0.0 for value in rdp)
    # RDP of the subsampled Gaussian is non-decreasing in the order.
    assert all(a <= b + 1e-12 for a, b in zip(rdp, rdp[1:]))


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.001, 0.3),
    sigma=st.floats(0.5, 5.0),
    steps=st.integers(1, 200),
    delta=st.floats(1e-8, 1e-2),
)
def test_epsilon_positive_and_monotone_in_steps(q, sigma, steps, delta):
    orders = (2, 4, 8, 16, 32, 64)
    few = compute_rdp(q=q, sigma=sigma, steps=steps, orders=orders)
    more = compute_rdp(q=q, sigma=sigma, steps=steps * 2, orders=orders)
    eps_few, _ = rdp_to_epsilon(few, orders, delta)
    eps_more, _ = rdp_to_epsilon(more, orders, delta)
    assert eps_few > 0.0
    assert eps_more >= eps_few - 1e-12
