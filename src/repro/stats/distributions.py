"""Gaussian distribution helpers, NumPy-only.

:func:`normal_cdf` evaluates :func:`math.erf` element by element, and
:func:`normal_ppf` / :func:`normal_quantiles` use Acklam's rational
approximation of the inverse CDF.  Nothing here depends on an optional
package: a host with SciPy installed runs exactly the same code as one
without it.

The element-wise ``erf`` is one Python call per value, several times
slower than a compiled kernel.  The round path barely uses it: FirstAGG
decides its KS test from order-statistic bounds
(:class:`repro.stats.ks.KSRankBounds`) and evaluates :func:`normal_cdf` once
per filter, on the bounds themselves, and on the rare upload whose
statistic lies within a relative 1e-6 of the critical value.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["normal_cdf", "normal_ppf", "normal_quantiles"]


def normal_cdf(
    x: np.ndarray | float,
    sigma: float = 1.0,
    mu: float = 0.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """CDF of ``N(mu, sigma^2)`` evaluated element-wise.

    The computation is ``0.5 * (1 + erf((x - mu) / (sigma * sqrt(2))))``
    with :func:`math.erf`.  ``x - 0.0`` is a bitwise no-op, so the
    ``mu == 0`` fast path returns exactly the same floats as the general
    expression.  Pass ``out`` (same shape as ``x``; may alias ``x``) to
    receive the result in a caller-owned buffer.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64)
    scale = sigma * math.sqrt(2.0)
    if mu == 0.0:
        z = np.divide(x, scale, out=out)
    else:
        z = np.subtract(x, mu, out=out)
        z = np.divide(z, scale, out=z if isinstance(z, np.ndarray) else None)
    z = np.asarray(z, dtype=np.float64)
    result = np.fromiter(
        map(math.erf, z.ravel().tolist()), dtype=np.float64, count=z.size
    ).reshape(z.shape)
    if out is not None:
        np.copyto(out, result)
        result = out
    result += 1.0
    result *= 0.5
    return result


# Coefficients of Acklam's rational approximation of the standard normal
# quantile (relative error < 1.15e-9), shared by the scalar and the
# vectorised quantile.
_ACKLAM_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
             1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_ACKLAM_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
             6.680131188771972e01, -1.328068155288572e01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
             -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
             3.754408661907416e00)
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def _acklam_central(q: float | np.ndarray) -> float | np.ndarray:
    """Standard normal quantile at ``p = 0.5 + q`` for ``p`` in ``[_P_LOW, _P_HIGH]``."""
    a, b = _ACKLAM_A, _ACKLAM_B
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def _acklam_tail(q: float | np.ndarray) -> float | np.ndarray:
    """Standard normal quantile at a lower-tail ``p``, given ``q = sqrt(-2 log p)``."""
    c, d = _ACKLAM_C, _ACKLAM_D
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


def normal_ppf(p: float, sigma: float = 1.0, mu: float = 0.0) -> float:
    """Inverse CDF (quantile function) of ``N(mu, sigma^2)``.

    Uses the Acklam rational approximation (relative error < 1.15e-9), which
    is plenty for computing attack quantiles.  The logarithms are
    :func:`math.log`, so the result is the same float on every host.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p < _P_LOW:
        z = _acklam_tail(math.sqrt(-2.0 * math.log(p)))
    elif p <= _P_HIGH:
        z = _acklam_central(p - 0.5)
    else:
        z = -_acklam_tail(math.sqrt(-2.0 * math.log(1.0 - p)))
    return mu + sigma * z


def normal_quantiles(p: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Quantiles of ``N(0, sigma^2)`` at every probability in ``p``.

    The vectorised counterpart of :func:`normal_ppf`, extended to the
    closed unit interval: ``p <= 0`` maps to ``-inf`` and ``p >= 1`` to
    ``+inf``.  The central region evaluates the same rational function as
    the scalar, so it returns the same floats; in the tails ``np.log`` may
    differ from :func:`math.log` in the last bit, so callers that need the
    scalar's exact floats use :func:`normal_ppf`.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    p = np.asarray(p, dtype=np.float64)
    z = np.where(p <= 0.0, -np.inf, np.inf)
    lower = (p > 0.0) & (p < _P_LOW)
    central = (p >= _P_LOW) & (p <= _P_HIGH)
    upper = (p > _P_HIGH) & (p < 1.0)
    z[lower] = _acklam_tail(np.sqrt(-2.0 * np.log(p[lower])))
    z[central] = _acklam_central(p[central] - 0.5)
    z[upper] = -_acklam_tail(np.sqrt(-2.0 * np.log(1.0 - p[upper])))
    return sigma * z
