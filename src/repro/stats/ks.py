"""One-sample Kolmogorov-Smirnov test against a centred Gaussian.

Section 4.3 of the paper treats every coordinate of an upload as a sample
and tests the null hypothesis that the coordinates are drawn from
``N(0, sigma^2)``.  The test rejects when the p-value falls below 0.05.

Every test here is batched over the rows of an ``(n, d)`` sample matrix;
a single sample is the one-row matrix.  This module provides:

- :func:`ks_statistics` -- one two-sided D statistic
  ``sup_x |C_d(x) - Phi_sigma(x)|`` per row, from a single
  ``np.sort(axis=1)``,
- :func:`kolmogorov_survival` -- the asymptotic Kolmogorov distribution used
  to convert D into a p-value (scalar or element-wise over an array),
- :func:`ks_pvalues` -- the p-values of a batch of statistics in one call,
- :func:`critical_statistic` -- the largest D that still passes,
- :func:`ks_envelopes` / :func:`theorem2_interval` -- the CDF band
  ``[E_l, E_u]`` and the per-order-statistic acceptance interval of
  Theorem 2, which characterises the subspace an accepted upload must lie in,
- :class:`KSRankBounds` -- Theorem 2 turned into a decision procedure: the
  intervals of every rank, precomputed once just inside and just outside
  the critical statistic, decide the test from a sorted sample with
  comparisons alone.

FirstAGG decides its per-round KS tests with :class:`KSRankBounds`, so the
CDF (:func:`repro.stats.distributions.normal_cdf`) is evaluated per round
only for a sample whose statistic lies within a relative 1e-6 of the
critical value.  :func:`ks_statistics` and :func:`ks_pvalues` serve that
exact fallback and the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.stats.distributions import normal_cdf, normal_quantiles

__all__ = [
    "KSWorkspace",
    "ks_statistics",
    "kolmogorov_survival",
    "ks_pvalues",
    "ks_envelopes",
    "theorem2_interval",
    "critical_statistic",
    "KSRankBounds",
]


@lru_cache(maxsize=8)
def _ecdf_steps(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached empirical-CDF step levels ``k/d`` for ``k = 1..d`` and ``0..d-1``."""
    upper = np.arange(1, d + 1, dtype=np.float64) / d
    lower = np.arange(0, d, dtype=np.float64) / d
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


class KSWorkspace:
    """Reusable ``(n, d)`` scratch buffers for row-sorting a sample matrix.

    A long-lived caller (the first-stage filter sorts a batch every round)
    hands the same workspace to every call so the full-matrix temporaries
    are allocated once instead of per round.  The sort buffer serves every
    call; the difference buffer only :func:`ks_statistics` needs, so it is
    allocated on first use.  Both grow to the largest ``n`` seen and are
    re-created when ``d`` changes.
    """

    def __init__(self) -> None:
        self._ordered: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    @staticmethod
    def _fitted(buffer: np.ndarray | None, n: int, d: int) -> np.ndarray:
        if buffer is None or buffer.shape[0] < n or buffer.shape[1] != d:
            return np.empty((n, d), dtype=np.float64)
        return buffer

    def sort_rows(self, matrix: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Row-sorted copy of ``matrix`` (or of ``matrix[rows]``).

        The selected rows are gathered straight into the buffer, so no
        intermediate ``matrix[rows]`` copy is materialised.  Rows index
        like ``matrix[rows]``: negative ones count from the end, and one
        outside ``[-n, n)`` raises :class:`IndexError`.  The returned
        array is a view of the workspace, overwritten by the next call.
        """
        n = matrix.shape[0] if rows is None else len(rows)
        self._ordered = self._fitted(self._ordered, n, matrix.shape[1])
        ordered = self._ordered[:n]
        if rows is None:
            np.copyto(ordered, matrix)
        else:
            rows = np.asarray(rows, dtype=np.intp)
            size = matrix.shape[0]
            if rows.size and not -size <= rows.min() <= rows.max() < size:
                raise IndexError(f"rows out of range for a matrix of {size} rows")
            # np.take's default mode="raise" builds the whole result in a
            # temporary before it writes ``out``; "wrap" writes it directly.
            np.take(matrix, rows, axis=0, out=ordered, mode="wrap")
        ordered.sort(axis=1)
        return ordered

    def scratch(self, n: int, d: int) -> np.ndarray:
        """An ``(n, d)`` view of the difference buffer, allocated on first use."""
        self._scratch = self._fitted(self._scratch, n, d)
        return self._scratch[:n]


def ks_statistics(
    samples: np.ndarray,
    sigma: float,
    workspace: KSWorkspace | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Two-sided KS statistics of every row of ``samples`` against ``N(0, sigma^2)``.

    ``samples`` is an ``(n, d)`` matrix whose rows are independent samples;
    the result has shape ``(n,)``.  The whole batch costs one
    ``np.sort(axis=1)``, one ``normal_cdf`` evaluation of the whole matrix
    and two row-wise maxima.  Passing a :class:`KSWorkspace` reuses its
    buffers for the sorted rows and the differences; ``samples`` itself is
    never modified either way.  ``rows`` restricts the
    computation to ``samples[rows]`` (result shape ``(len(rows),)``); with a
    workspace the selected rows are gathered straight into the scratch
    buffer, so no intermediate ``samples[rows]`` copy is materialised.
    """
    matrix = np.asarray(samples, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"samples must be an (n, d) matrix, got shape {matrix.shape}")
    if matrix.shape[1] == 0:
        raise ValueError("cannot compute a KS statistic on an empty sample")
    if rows is not None and workspace is None:
        matrix = matrix[rows]
    d = matrix.shape[1]
    if workspace is not None:
        ordered = workspace.sort_rows(matrix, rows)
        scratch = workspace.scratch(*ordered.shape)
        cdf_values = normal_cdf(ordered, sigma=sigma, out=ordered)
    else:
        scratch = None
        cdf_values = normal_cdf(np.sort(matrix, axis=1), sigma=sigma)
    upper_steps, lower_steps = _ecdf_steps(d)
    diff = np.subtract(upper_steps, cdf_values, out=scratch)
    d_plus = diff.max(axis=1)
    # cdf_values is a buffer owned by this call (fresh or workspace): reuse
    # it for the second difference instead of another (n, d) temporary.
    np.subtract(cdf_values, lower_steps, out=cdf_values)
    d_minus = cdf_values.max(axis=1)
    return np.maximum(d_plus, d_minus)


#: Below this argument :func:`kolmogorov_survival` switches to the theta
#: series: the alternating series needs ~1/lam terms there, so its 100 terms
#: fall short below lam ~ 0.05, while at 0.3 both agree to the last bit of
#: SciPy's ``kolmogorov``.
_THETA_CUTOFF = 0.3


def kolmogorov_survival(
    lam: float | np.ndarray, terms: int = 100
) -> float | np.ndarray:
    """Asymptotic Kolmogorov survival function ``Q(lam) = P(K > lam)``.

    For ``lam >= 0.3`` this is the alternating series
    ``Q(lam) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lam^2)``; below, the
    theta series ``1 - (sqrt(2 pi) / lam) * sum_{k>=1}
    exp(-(2k-1)^2 pi^2 / (8 lam^2))``, which converges fast exactly where
    the first one does not.  Accepts a scalar (returns ``float``) or an
    array of statistics (returns an array of the same shape) -- the batched
    KS test converts a whole round of D statistics into p-values with one
    call.
    """
    lam_array = np.asarray(lam, dtype=np.float64)
    scalar = lam_array.ndim == 0
    values = lam_array.reshape(-1)

    # (m, terms) alternating-series table; m and terms are both tiny.
    k = np.arange(1, terms + 1, dtype=np.float64)
    signs = np.where(k.astype(np.int64) % 2 == 1, 1.0, -1.0)
    exponents = -2.0 * np.square(k) * np.square(values)[:, np.newaxis]
    total = 2.0 * np.sum(signs * np.exp(exponents), axis=1)
    result = np.clip(total, 0.0, 1.0)

    small = values < _THETA_CUTOFF
    if small.any():
        # Q rounds to 1.0 below lam ~ 0.17, so clamping at 0.1 changes no
        # value, keeps 1/lam^2 finite and also gives Q = 1 for lam <= 0.
        lam_small = np.maximum(values[small], 0.1)
        odd_squares = np.square(2.0 * k - 1.0)
        theta = np.exp(-odd_squares * (math.pi**2 / 8.0) / np.square(lam_small)[:, np.newaxis])
        result[small] = 1.0 - math.sqrt(2.0 * math.pi) / lam_small * theta.sum(axis=1)

    if scalar:
        return float(result[0])
    return result.reshape(lam_array.shape)


def _stephens_scale(sample_size: int) -> float:
    """Stephens' (1970) finite-sample correction factor for the KS p-value."""
    sqrt_d = math.sqrt(sample_size)
    return sqrt_d + 0.12 + 0.11 / sqrt_d


def ks_pvalues(statistics: np.ndarray, sample_size: int) -> np.ndarray:
    """P-values of a batch of KS ``D`` statistics at a common sample size.

    All statistics of one aggregation round (every row shares the model
    dimension ``d``) are converted with a single call.  The p-value uses
    the asymptotic distribution with the standard finite-sample correction
    ``lam = (sqrt(d) + 0.12 + 0.11 / sqrt(d)) * D`` (Stephens 1970),
    accurate for the dimensionalities (d >= 1000) used here.
    """
    if sample_size <= 0:
        raise ValueError("sample_size must be positive")
    statistics = np.asarray(statistics, dtype=np.float64)
    lam = _stephens_scale(sample_size) * statistics
    return np.asarray(kolmogorov_survival(lam), dtype=np.float64)


def critical_statistic(sample_size: int, significance: float = 0.05) -> float:
    """Largest D statistic that still passes at the given significance level.

    Solves ``Q((sqrt(d) + 0.12 + 0.11/sqrt(d)) * D) = significance`` for D via
    bisection on ``[0, 1]``, run until the bracket holds two adjacent floats.
    Returns the upper end of that bracket, so ``1.0`` when every D passes.
    """
    if sample_size <= 0:
        raise ValueError("sample_size must be positive")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must be in (0, 1)")
    scale = _stephens_scale(sample_size)

    low, high = 0.0, 1.0
    while True:
        middle = 0.5 * (low + high)
        if middle in (low, high):  # adjacent floats: nothing left to split
            return high
        if kolmogorov_survival(scale * middle) > significance:
            low = middle
        else:
            high = middle


def ks_envelopes(
    x: np.ndarray, sigma: float, d_ks: float
) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower CDF envelopes ``E_u``, ``E_l`` from Section 4.3.

    ``E_u(x) = min(1, Phi_sigma(x) + D_KS)`` and
    ``E_l(x) = max(0, Phi_sigma(x) - D_KS)``.
    """
    cdf = normal_cdf(x, sigma=sigma)
    upper = np.minimum(1.0, cdf + d_ks)
    lower = np.maximum(0.0, cdf - d_ks)
    return upper, lower


def _theorem2_bounds(
    ranks: np.ndarray, dimension: int, sigma: float, d_ks: float
) -> tuple[np.ndarray, np.ndarray]:
    """Theorem-2 intervals ``[E_u^{-1}(k/d), E_l^{-1}((k-1)/d)]`` of 1-indexed ranks.

    ``k/d`` and ``(k-1)/d`` are the same floats as the empirical-CDF steps
    :func:`ks_statistics` compares against.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    lower = normal_quantiles(ranks / dimension - d_ks, sigma)
    upper = normal_quantiles((ranks - 1.0) / dimension + d_ks, sigma)
    return lower, upper


def theorem2_interval(
    k: int, dimension: int, sigma: float, d_ks: float
) -> tuple[float, float]:
    """Acceptance interval for the k-th order statistic (Theorem 2).

    To pass a KS test with critical statistic ``d_ks``, the k-th smallest
    coordinate (1-indexed) of a d-dimensional upload must fall inside
    ``[E_u^{-1}(k / d), E_l^{-1}((k - 1) / d)]``.  The inverse envelopes are

    - ``E_u^{-1}(p) = Phi^{-1}(p - D_KS)`` (``-inf`` when ``p <= D_KS``),
    - ``E_l^{-1}(p) = Phi^{-1}(p + D_KS)`` (``+inf`` when ``p + D_KS >= 1``).
    """
    if not 1 <= k <= dimension:
        raise ValueError(f"k must be in [1, {dimension}], got {k}")
    if not 0.0 < d_ks < 1.0:
        raise ValueError("d_ks must be in (0, 1)")
    lower, upper = _theorem2_bounds(k, dimension, sigma, d_ks)
    return float(lower), float(upper)


#: Relative half-width of the band around the critical statistic in which
#: :class:`KSRankBounds` leaves a sample to the exact statistic.  Half of it
#: is the margin each bound must keep from the quantile's error (at most
#: 2.7e-10 in probability): 30 times that at d = 6570, 2.5 times at 10^6.
RANK_BAND = 1e-6


@dataclass(frozen=True)
class KSRankBounds:
    """Per-rank bounds that decide a KS test from the sorted sample alone.

    The k-th smallest coordinate ``x_(k)`` of a d-dimensional sample
    contributes ``k/d - F(x_(k))`` and ``F(x_(k)) - (k-1)/d`` to the
    statistic ``D`` (``F = Phi_sigma``), so by Theorem 2 ``D <= D_b`` holds
    iff every ``x_(k)`` lies in its rank's interval at ``D_b``.  Two pairs of
    intervals straddle the critical statistic ``D*``:

    - ``accept_low`` / ``accept_high`` at ``D*(1 - RANK_BAND)``: a sample
      inside them at every rank has ``D < D*`` and passes;
    - ``reject_low`` / ``reject_high`` at ``D*(1 + RANK_BAND)``: a sample
      outside them at any rank has ``D > D*`` and fails.

    A sample that is neither has an order statistic inside the band; it is
    undecided and needs the exact statistic (:func:`ks_statistics`).

    The intervals come from an approximate quantile, so :meth:`build`
    checks every bound against :func:`normal_cdf`, the CDF
    :func:`ks_statistics` evaluates: the deviation at an accept bound must
    be at most ``D*(1 - RANK_BAND/2)``, the one at a reject bound at least
    ``D*(1 + RANK_BAND/2)``.  ``normal_cdf`` is monotone, so the check covers
    every coordinate on the deciding side of the bound.  A bound that fails
    becomes one no coordinate satisfies (accept) or violates (reject), which
    leaves its samples undecided.  The decision then equals the exact
    ``ks_pvalues(D) >= significance`` on every sample, because the p-value
    is monotone in ``D`` and the band holds a margin far above its rounding.
    """

    accept_low: np.ndarray
    accept_high: np.ndarray
    reject_low: np.ndarray
    reject_high: np.ndarray

    @classmethod
    def build(cls, dimension: int, sigma: float, critical: float) -> KSRankBounds:
        """Bounds for ``dimension`` samples of ``N(0, sigma^2)`` at ``D* = critical``."""
        upper_steps, lower_steps = _ecdf_steps(dimension)
        ranks = np.arange(1, dimension + 1)
        accept_low, accept_high = _theorem2_bounds(
            ranks, dimension, sigma, critical * (1.0 - RANK_BAND)
        )
        reject_low, reject_high = _theorem2_bounds(
            ranks, dimension, sigma, critical * (1.0 + RANK_BAND)
        )
        passes = critical * (1.0 - 0.5 * RANK_BAND)
        fails = critical * (1.0 + 0.5 * RANK_BAND)
        return cls(
            accept_low=np.where(
                upper_steps - normal_cdf(accept_low, sigma) <= passes, accept_low, np.inf
            ),
            accept_high=np.where(
                normal_cdf(accept_high, sigma) - lower_steps <= passes, accept_high, -np.inf
            ),
            reject_low=np.where(
                upper_steps - normal_cdf(reject_low, sigma) >= fails, reject_low, -np.inf
            ),
            reject_high=np.where(
                normal_cdf(reject_high, sigma) - lower_steps >= fails, reject_high, np.inf
            ),
        )

    def decide(self, ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(passed, undecided)`` masks for the rows of a row-sorted ``(n, d)`` matrix.

        A row that is neither passed nor undecided fails the test.
        """
        passed = (ordered >= self.accept_low).all(axis=1)
        passed &= (ordered <= self.accept_high).all(axis=1)
        undecided = ~passed
        if undecided.any():
            # Usually few rows: only they are compared with the reject bounds.
            rest = ordered[undecided]
            failed = (rest < self.reject_low).any(axis=1)
            failed |= (rest > self.reject_high).any(axis=1)
            undecided[undecided] = ~failed
        return passed, undecided
