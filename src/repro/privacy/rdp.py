"""Rényi differential privacy of the subsampled Gaussian mechanism.

This module implements the standard analysis used by DP-SGD accountants
(Mironov, Talwar, Zhang, "Rényi Differential Privacy of the Sampled Gaussian
Mechanism", 2019): for an integer Rényi order ``alpha``, sampling rate ``q``
and noise multiplier ``sigma``, one step of the mechanism satisfies
``(alpha, rdp)``-RDP with

    rdp = 1 / (alpha - 1) * log( sum_{k=0}^{alpha} C(alpha, k)
                                  (1 - q)^(alpha - k) q^k
                                  exp(k (k - 1) / (2 sigma^2)) )

RDP composes additively over steps, and converts to (ε, δ)-DP via

    epsilon = rdp_total + log(1 / delta) / (alpha - 1)

minimised over the candidate orders.  The bound is an upper bound
(conservative), which is what a privacy guarantee requires.

Evaluation
----------
:func:`compute_rdp` evaluates every order at once.  In log space the
``k``-th term of order ``alpha`` is ``base[k] + k (k - 1) / (2 sigma^2)``,
where ``base[k] = log C(alpha, k) + k log q + (alpha - k) log(1 - q)`` does
not depend on ``sigma``.  The ``base`` terms of all orders are laid out
flat (3.8k terms for :data:`DEFAULT_ORDERS`), built once per
``(q, orders)`` with :func:`math.lgamma` and cached read-only, so a
``sigma`` probe of :func:`~repro.privacy.calibration.calibrate_sigma`'s
bisection is a handful of numpy passes: add the ``sigma`` term, then one
log-sum-exp per order through ``np.maximum.reduceat`` and
``np.add.reduceat``.

Each term is computed with the same operations in the same order as the
textbook per-order loop, so the terms are bit-identical; only the
summation differs (one max-shifted sum instead of pairwise ``log_add``),
which moves an RDP value by a few ulps.  That leaves the calibrated
``sigma`` unchanged: the bisection returns a point of its fixed dyadic
grid, and a few ulps of ε can only flip a probe whose ε equals the
target to ~1e-15 relative.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

__all__ = ["DEFAULT_ORDERS", "compute_rdp", "rdp_to_epsilon"]

#: Integer Rényi orders scanned by default.  The low orders matter in the
#: high-noise regime (small epsilon), the high orders in the low-noise regime.
DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 64)) + (
    64,
    80,
    96,
    128,
    192,
    256,
    384,
    512,
)


def _checked_orders(orders: Sequence[int]) -> tuple[int, ...]:
    """``orders`` as a tuple of ints; ``ValueError`` unless all are integers >= 2."""
    if any(order < 2 or int(order) != order for order in orders):
        raise ValueError("all Rényi orders must be integers >= 2")
    return tuple(int(order) for order in orders)


class _TermTable(NamedTuple):
    """The flat ``sigma``-independent terms of some orders at one rate ``q``.

    Term ``k`` of order ``alpha`` is ``base + pairs / (2 sigma^2)`` with
    ``pairs = k (k - 1)``; order ``i`` owns ``sizes[i] = alpha + 1`` terms
    from ``starts[i]`` on.
    """

    base: np.ndarray
    pairs: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


@functools.lru_cache(maxsize=32)
def _term_table(q: float, orders: tuple[int, ...]) -> _TermTable:
    """The :class:`_TermTable` of ``orders`` at rate ``0 < q < 1``.

    The arrays are read-only: every caller with the same key shares them.
    """
    log_q = math.log(q)
    log_one_minus_q = math.log1p(-q)
    log_factorials = np.array(
        [math.lgamma(n + 1) for n in range(max(orders) + 1)], dtype=np.float64
    )
    sizes = np.array(orders, dtype=np.intp) + 1
    alphas = np.repeat(sizes - 1, sizes)
    ks = np.concatenate([np.arange(size, dtype=np.intp) for size in sizes])
    # Left to right, exactly like the per-term scalar expression.
    base = (
        log_factorials[alphas]
        - log_factorials[ks]
        - log_factorials[alphas - ks]
        + ks * log_q
        + (alphas - ks) * log_one_minus_q
    )
    table = _TermTable(
        base=base,
        pairs=(ks * (ks - 1)).astype(np.float64),
        starts=np.cumsum(sizes) - sizes,
        sizes=sizes,
    )
    for array in table:
        array.flags.writeable = False
    return table


def compute_rdp(
    q: float,
    sigma: float,
    steps: int,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> list[float]:
    """RDP values (one per order) after ``steps`` compositions.

    Parameters
    ----------
    q:
        Sampling rate, the batch size divided by the dataset size.
    sigma:
        Noise multiplier (noise standard deviation / sensitivity).
    steps:
        Number of mechanism invocations (training iterations).
    orders:
        Integer Rényi orders to evaluate; each must be >= 2.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sampling rate q must be in [0, 1], got {q}")
    if sigma <= 0:
        raise ValueError(f"noise multiplier sigma must be positive, got {sigma}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    orders = _checked_orders(orders)
    if not orders or q == 0.0:
        return [0.0] * len(orders)
    if q == 1.0:
        # No amplification: the plain Gaussian mechanism, alpha / (2 sigma^2).
        return [steps * (order / (2.0 * sigma**2)) for order in orders]

    table = _term_table(float(q), orders)
    terms = table.base + table.pairs / (2.0 * sigma**2)
    # One log-sum-exp per order: shift by the order's largest term, whose
    # exp is exactly 1, and sum the others for log1p, which keeps their
    # small total (about alpha * q for small q) to full precision.
    peaks = np.maximum.reduceat(terms, table.starts)
    terms -= np.repeat(peaks, table.sizes)
    at_peak = terms == 0.0
    np.exp(terms, out=terms)
    terms[at_peak] = 0.0
    rest = np.add.reduceat(terms, table.starts) + (
        np.add.reduceat(at_peak, table.starts) - 1
    )
    return (steps * ((peaks + np.log1p(rest)) / (table.sizes - 2))).tolist()


def rdp_to_epsilon(
    rdp: Sequence[float],
    orders: Sequence[int],
    delta: float,
) -> tuple[float, int]:
    """Convert accumulated RDP values to an (ε, δ) guarantee.

    Returns the smallest ε over the candidate orders together with the order
    that achieved it.  ``orders`` must be integers >= 2, as for
    :func:`compute_rdp`: the conversion is undefined at order 1 and is not
    a valid bound below it.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if len(rdp) != len(orders):
        raise ValueError("rdp and orders must have the same length")
    if not orders:
        raise ValueError("at least one Rényi order is required")
    orders = _checked_orders(orders)

    best_epsilon = math.inf
    best_order = orders[0]
    log_inverse_delta = math.log(1.0 / delta)
    for value, order in zip(rdp, orders):
        epsilon = value + log_inverse_delta / (order - 1)
        if epsilon < best_epsilon:
            best_epsilon = epsilon
            best_order = order
    return best_epsilon, best_order
