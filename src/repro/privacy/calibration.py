"""Noise-multiplier calibration.

The paper fixes the privacy target (ε, δ), the sampling rate q = b_c / |D|
and the number of iterations T, then searches for the smallest noise
multiplier σ meeting the target (the role played by TensorFlow Privacy in
the original code).  We reproduce this with a bisection over σ using the RDP
accountant, which is monotone: larger σ ⇒ smaller ε.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.privacy.rdp import DEFAULT_ORDERS, compute_rdp, rdp_to_epsilon

__all__ = ["epsilon_for_sigma", "calibrate_sigma"]


def epsilon_for_sigma(
    sigma: float,
    q: float,
    steps: int,
    delta: float,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> float:
    """ε achieved by ``steps`` subsampled-Gaussian invocations with multiplier ``sigma``."""
    rdp = compute_rdp(q=q, sigma=sigma, steps=steps, orders=orders)
    epsilon, _ = rdp_to_epsilon(rdp, orders, delta)
    return epsilon


def calibrate_sigma(
    target_epsilon: float,
    delta: float,
    q: float,
    steps: int,
    orders: Sequence[int] = DEFAULT_ORDERS,
    sigma_min: float = 1e-2,
    sigma_max: float = 1e4,
    tolerance: float = 1e-3,
) -> float:
    """Smallest noise multiplier whose ε is at most ``target_epsilon``.

    The returned σ always satisfies the target (the bisection keeps the
    conservative side); a tight tolerance keeps the utility loss negligible.
    A tolerance below the float spacing at σ ends the search once the
    midpoint stops moving.

    Raises
    ------
    ValueError
        If even ``sigma_max`` cannot reach the target (pathological settings),
        or if the target or the tolerance is non-positive.
    """
    if target_epsilon <= 0:
        raise ValueError(f"target_epsilon must be positive, got {target_epsilon}")
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")

    if epsilon_for_sigma(sigma_min, q, steps, delta, orders) <= target_epsilon:
        return sigma_min
    if epsilon_for_sigma(sigma_max, q, steps, delta, orders) > target_epsilon:
        raise ValueError(
            "cannot reach the target epsilon even with the maximum noise multiplier; "
            "increase sigma_max or relax the target"
        )

    low, high = sigma_min, sigma_max
    while high - low > tolerance:
        middle = 0.5 * (low + high)
        if middle in (low, high):  # adjacent floats: nothing left to split
            break
        if epsilon_for_sigma(middle, q, steps, delta, orders) <= target_epsilon:
            high = middle
        else:
            low = middle
    return high
