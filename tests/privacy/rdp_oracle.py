"""Scalar reference for :func:`repro.privacy.rdp.compute_rdp` (test oracle).

The textbook per-order loop: every term of the subsampled-Gaussian sum in
log space, folded one at a time with a stable ``log_add``.  It is the
definition the vectorised implementation must reproduce, kept here
because nothing outside the tests evaluates RDP this slowly.
"""

from __future__ import annotations

import math


def log_add(log_a: float, log_b: float) -> float:
    """Numerically stable ``log(exp(log_a) + exp(log_b))``."""
    if log_a == -math.inf:
        return log_b
    if log_b == -math.inf:
        return log_a
    high, low = max(log_a, log_b), min(log_a, log_b)
    return high + math.log1p(math.exp(low - high))


def rdp_gaussian(alpha: int, sigma: float) -> float:
    """RDP of the (non-subsampled) Gaussian mechanism with sensitivity 1."""
    return alpha / (2.0 * sigma**2)


def rdp_subsampled_gaussian(alpha: int, q: float, sigma: float) -> float:
    """RDP of one step of the Poisson-subsampled Gaussian mechanism."""
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return rdp_gaussian(alpha, sigma)

    log_total = -math.inf
    log_q = math.log(q)
    log_one_minus_q = math.log1p(-q)
    for k in range(alpha + 1):
        log_term = (
            math.lgamma(alpha + 1)
            - math.lgamma(k + 1)
            - math.lgamma(alpha - k + 1)
            + k * log_q
            + (alpha - k) * log_one_minus_q
            + k * (k - 1) / (2.0 * sigma**2)
        )
        log_total = log_add(log_total, log_term)
    return log_total / (alpha - 1)


def compute_rdp(q: float, sigma: float, steps: int, orders) -> list[float]:
    """RDP values (one per order) after ``steps`` compositions."""
    return [steps * rdp_subsampled_gaussian(int(order), q, sigma) for order in orders]
