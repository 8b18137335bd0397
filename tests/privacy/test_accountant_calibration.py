"""Tests for the RDP accountant and noise-multiplier calibration."""

from __future__ import annotations

import math

import pytest

from repro.privacy import calibration
from repro.privacy.accountant import RDPAccountant
from repro.privacy.calibration import calibrate_sigma, epsilon_for_sigma

#: ``calibrate_sigma`` arguments and results recorded with the scalar
#: per-order RDP loop; the vectorised evaluation must return the same
#: floats.  The first seven are the paper's ε grid at |D| = 300, b_c = 16,
#: T = 150, then the seeded CI reference run and a population-10^4 run.
SIGMA_PINS = [
    *zip(
        [(eps, 300**-1.1, 16 / 300, 150) for eps in (0.125, 0.25, 0.5, 1, 2, 4, 8)],
        [18.77888782441616, 9.507394601106643, 4.901152259111405, 2.6266412889957427,
         1.5293208760023118, 1.0089728474617008, 0.7562494063377381],
    ),
    ((2.0, 0.001884371901952303, 0.05333333333333334, 38), 1.0995718169212343),
    ((2.0, 0.013524866756124824, 0.32, 157), 6.607035486698152),
]


@pytest.fixture
def bounded_probes(monkeypatch):
    """Fail a bisection that runs past 500 probes instead of hanging."""
    calls = []

    def bounded(*args, **kwargs):
        calls.append(1)
        if len(calls) > 500:
            raise AssertionError("the bisection does not terminate")
        return epsilon_for_sigma(*args, **kwargs)

    monkeypatch.setattr(calibration, "epsilon_for_sigma", bounded)


class TestAccountant:
    def test_initial_state_has_no_steps(self):
        accountant = RDPAccountant()
        assert accountant.steps == 0

    def test_step_counter(self):
        accountant = RDPAccountant()
        accountant.step(q=0.01, sigma=1.0, steps=10)
        accountant.step(q=0.01, sigma=1.0, steps=5)
        assert accountant.steps == 15

    def test_epsilon_grows_with_steps(self):
        accountant = RDPAccountant()
        accountant.step(q=0.02, sigma=1.0, steps=100)
        early = accountant.get_epsilon(delta=1e-5)
        accountant.step(q=0.02, sigma=1.0, steps=900)
        late = accountant.get_epsilon(delta=1e-5)
        assert late > early

    def test_matches_single_shot_composition(self):
        """Stepping twice equals stepping once with the summed step count."""
        split = RDPAccountant()
        split.step(q=0.01, sigma=1.2, steps=300)
        split.step(q=0.01, sigma=1.2, steps=700)
        combined = RDPAccountant()
        combined.step(q=0.01, sigma=1.2, steps=1000)
        assert split.get_epsilon(1e-5) == pytest.approx(combined.get_epsilon(1e-5))

    def test_heterogeneous_steps_compose(self):
        accountant = RDPAccountant()
        accountant.step(q=0.01, sigma=1.0, steps=100)
        accountant.step(q=0.05, sigma=2.0, steps=100)
        assert accountant.get_epsilon(1e-5) > 0.0

    def test_reset(self):
        accountant = RDPAccountant()
        accountant.step(q=0.02, sigma=1.0, steps=100)
        accountant.reset()
        assert accountant.steps == 0
        fresh = RDPAccountant()
        fresh.step(q=0.02, sigma=1.0, steps=1)
        accountant.step(q=0.02, sigma=1.0, steps=1)
        assert accountant.get_epsilon(1e-5) == pytest.approx(fresh.get_epsilon(1e-5))

    def test_epsilon_and_order(self):
        accountant = RDPAccountant()
        accountant.step(q=0.02, sigma=1.0, steps=100)
        epsilon, order = accountant.get_epsilon_and_order(1e-5)
        assert epsilon == pytest.approx(accountant.get_epsilon(1e-5))
        assert order in accountant.orders

    def test_rejects_empty_orders(self):
        with pytest.raises(ValueError):
            RDPAccountant(orders=())

    def test_more_noise_less_epsilon(self):
        low_noise = RDPAccountant()
        low_noise.step(q=0.02, sigma=0.8, steps=200)
        high_noise = RDPAccountant()
        high_noise.step(q=0.02, sigma=4.0, steps=200)
        assert high_noise.get_epsilon(1e-5) < low_noise.get_epsilon(1e-5)


class TestEpsilonForSigma:
    def test_monotone_decreasing_in_sigma(self):
        eps_small = epsilon_for_sigma(sigma=0.8, q=0.01, steps=500, delta=1e-5)
        eps_large = epsilon_for_sigma(sigma=3.0, q=0.01, steps=500, delta=1e-5)
        assert eps_large < eps_small

    def test_monotone_increasing_in_steps(self):
        eps_few = epsilon_for_sigma(sigma=1.0, q=0.01, steps=10, delta=1e-5)
        eps_many = epsilon_for_sigma(sigma=1.0, q=0.01, steps=1000, delta=1e-5)
        assert eps_many > eps_few

    def test_positive(self):
        assert epsilon_for_sigma(sigma=1.0, q=0.02, steps=100, delta=1e-4) > 0.0


class TestCalibrateSigma:
    def test_calibrated_sigma_meets_target(self):
        target, delta, q, steps = 1.0, 1e-4, 0.02, 500
        sigma = calibrate_sigma(target, delta, q, steps)
        achieved = epsilon_for_sigma(sigma, q, steps, delta)
        assert achieved <= target

    def test_calibration_is_tight(self):
        """A slightly smaller sigma should violate the target (no over-noising)."""
        target, delta, q, steps = 1.0, 1e-4, 0.02, 500
        sigma = calibrate_sigma(target, delta, q, steps, tolerance=1e-4)
        assert epsilon_for_sigma(sigma * 0.97, q, steps, delta) > target

    def test_smaller_epsilon_needs_more_noise(self):
        common = dict(delta=1e-4, q=0.02, steps=300)
        assert calibrate_sigma(0.125, **common) > calibrate_sigma(2.0, **common)

    def test_more_steps_need_more_noise(self):
        common = dict(target_epsilon=1.0, delta=1e-4, q=0.02)
        assert calibrate_sigma(steps=2000, **common) > calibrate_sigma(steps=100, **common)

    def test_larger_sampling_rate_needs_more_noise(self):
        common = dict(target_epsilon=1.0, delta=1e-4, steps=300)
        assert calibrate_sigma(q=0.2, **common) > calibrate_sigma(q=0.01, **common)

    def test_very_loose_target_returns_minimum(self):
        sigma = calibrate_sigma(
            target_epsilon=1e6, delta=1e-4, q=0.001, steps=1, sigma_min=0.05
        )
        assert sigma == pytest.approx(0.05)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            calibrate_sigma(0.0, 1e-4, 0.01, 10)

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            calibrate_sigma(1.0, 1e-4, 0.01, 0)

    @pytest.mark.parametrize("arguments,sigma", SIGMA_PINS)
    def test_sigma_is_pinned(self, arguments, sigma):
        assert calibrate_sigma(*arguments) == sigma

    def test_reference_calibration_evaluates_rdp_26_times(self, monkeypatch):
        """Two endpoint probes and 24 bisection steps, through the module global."""
        calls = []
        original = calibration.compute_rdp

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(calibration, "compute_rdp", counting)
        calibrate_sigma(2.0, 0.001884371901952303, 0.05333333333333334, 38)
        assert len(calls) == 26

    @pytest.mark.parametrize("tolerance", [0.0, -1e-3, math.nan])
    def test_rejects_nonpositive_tolerance(self, tolerance, bounded_probes):
        with pytest.raises(ValueError, match="tolerance"):
            calibrate_sigma(1.0, 1e-4, 0.02, 500, tolerance=tolerance)

    def test_tolerance_below_float_spacing_terminates(self, bounded_probes):
        """Once the midpoint equals an endpoint the bisection stops."""
        sigma = calibrate_sigma(1.0, 1e-4, 0.02, 500, tolerance=1e-300)
        assert epsilon_for_sigma(sigma, 0.02, 500, 1e-4) <= 1.0
        below = math.nextafter(sigma, 0.0)
        assert epsilon_for_sigma(below, 0.02, 500, 1e-4) > 1.0

    def test_unreachable_target_raises(self):
        with pytest.raises(ValueError):
            calibrate_sigma(
                target_epsilon=1e-8, delta=1e-12, q=0.5, steps=10_000, sigma_max=5.0
            )

    @pytest.mark.parametrize("epsilon", [0.125, 0.5, 2.0])
    def test_paper_privacy_levels_are_calibratable(self, epsilon):
        """The paper's epsilon grid with its delta = |D|^-1.1 convention."""
        local_size = 300
        delta = 1.0 / local_size**1.1
        q = 16 / local_size
        steps = 150
        sigma = calibrate_sigma(epsilon, delta, q, steps)
        assert sigma > 0.0
        assert epsilon_for_sigma(sigma, q, steps, delta) <= epsilon
