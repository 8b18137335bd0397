"""First-stage aggregation: FirstAGG (Algorithm 2).

An upload is accepted only if it is statistically indistinguishable from a
vector dominated by the protocol's DP noise:

1. **Norm test** -- its squared l2-norm must lie inside the 3-sigma
   chi-square interval around ``sigma^2 d`` (Section 4.3).
2. **KS test** -- treating the coordinates as samples, a one-sample
   Kolmogorov-Smirnov test against ``N(0, sigma^2)`` must not reject at the
   configured significance level (0.05).

Algorithm 2 replaces a rejected upload by the zero vector, which removes
its influence from the averaged update.  Here that is a mask over the
round's ``(n_workers, d)`` upload matrix: :meth:`FirstStageFilter
.accepts_batch` is the one entry point, and a single upload is the
one-row matrix (a 1-D upload is lifted to one).  The two-stage rule
applies the mask without copying; a caller that wants Algorithm 2's
zeroed matrix writes ``np.where(accepted[:, None], uploads, 0.0)``.

One ``einsum`` gives every squared norm.  The KS test uses Theorem 2: a
filter precomputes, per rank, the order-statistic bounds just inside and
just outside the critical statistic
(:class:`repro.stats.ks.KSRankBounds`), so a round sorts the rows that
passed the norm test, a bounded block at a time into a buffer of its
own, and decides each with comparisons.  Only a row with an order
statistic in the 1e-6 band between the two gets its exact statistic and
p-value, and the mask always equals the one the p-values give.  :meth:`FirstStageFilter.inspect_batch`
computes every row's statistics and p-values itself: it is the exact
reference the rank-bound decisions are tested against, and the tool for
interactive inspection.  Between calls a filter keeps only what its
settings fix: the norm interval, the critical statistic and the rank
bounds; no buffer outlives the call that sorted into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.ks import (
    KSRankBounds,
    critical_statistic,
    ks_pvalues,
    ks_statistics,
    sort_rows,
    theorem2_interval,
)
from repro.stats.norm_test import squared_norm_interval

__all__ = ["FirstStageFilter", "FirstStageBatchReport"]

#: Most bytes of sorted rows :meth:`FirstStageFilter.accepts_batch` decides
#: at once: 4 rows at the paper's d = 6570.
_KS_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class FirstStageBatchReport:
    """Outcome of running FirstAGG on a whole round of uploads.

    All fields are arrays of length ``n_workers``, aligned with the rows of
    the upload matrix handed to :meth:`FirstStageFilter.inspect_batch`.
    """

    accepted: np.ndarray
    norm_ok: np.ndarray
    ks_ok: np.ndarray
    squared_norms: np.ndarray
    ks_pvalues: np.ndarray


class FirstStageFilter:
    """FirstAGG: the norm test plus the KS test.

    Parameters
    ----------
    sigma:
        Per-coordinate standard deviation of the DP noise *in the upload*
        (``sigma_protocol / b_c``; see
        :func:`repro.core.dp_protocol.upload_noise_std`).
    dimension:
        Model size ``d``.
    significance:
        KS-test rejection threshold on the p-value (paper: 0.05).
    norm_k:
        Width of the norm acceptance interval in standard deviations
        (paper: 3).
    """

    def __init__(
        self,
        sigma: float,
        dimension: int,
        significance: float = 0.05,
        norm_k: float = 3.0,
    ) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive (FirstAGG requires DP noise)")
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.sigma = float(sigma)
        self.dimension = int(dimension)
        self.significance = float(significance)
        self.norm_k = float(norm_k)
        self._norm_bounds = squared_norm_interval(self.sigma, self.dimension, self.norm_k)
        self._critical = critical_statistic(self.dimension, self.significance)
        self._rank_bounds = KSRankBounds.build(self.dimension, self.sigma, self._critical)
        # Rows the batched KS test sorts and decides at once.
        self._ks_block = max(1, _KS_BLOCK_BYTES // (8 * self.dimension))

    def norm_bounds(self) -> tuple[float, float]:
        """Acceptance interval for the squared norm of an upload."""
        return self._norm_bounds

    # ------------------------------------------------------------------ #
    # FirstAGG over the round matrix (one upload is a one-row matrix)
    # ------------------------------------------------------------------ #
    def _as_matrix(self, uploads: np.ndarray) -> np.ndarray:
        matrix = np.asarray(uploads, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[np.newaxis, :]
        if matrix.ndim != 2 or matrix.shape[1] != self.dimension:
            raise ValueError(
                f"uploads must have shape (n, {self.dimension}), got {matrix.shape}"
            )
        return matrix

    def _norm_test_batch(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All squared norms plus the norm-test mask, one einsum for the batch."""
        squared = np.einsum("ij,ij->i", matrix, matrix)
        low, high = self._norm_bounds
        return squared, (squared >= low) & (squared <= high)

    def accepts_batch(self, uploads: np.ndarray) -> np.ndarray:
        """Boolean acceptance mask for an ``(n, d)`` upload matrix.

        A 1-D upload is the one-row matrix, so its mask has one entry.
        The KS test runs only on rows that passed the norm test, a block of
        at most ``_KS_BLOCK_BYTES`` at a time, each sorted into a new
        buffer.  A block's sorted coordinates are compared with the
        filter's rank bounds; a row the bounds leave undecided gets its
        exact statistic and p-value.  Every step is per row, so the
        blocking moves no decision, and the mask equals
        ``norm_ok & (p-value >= significance)`` on every row.
        """
        matrix = self._as_matrix(uploads)
        _, accepted = self._norm_test_batch(matrix)
        candidates = np.flatnonzero(accepted)
        for start in range(0, candidates.size, self._ks_block):
            rows = candidates[start:start + self._ks_block]
            passed, undecided = self._rank_bounds.decide(sort_rows(matrix, rows))
            if undecided.any():
                statistics = ks_statistics(matrix, self.sigma, rows=rows[undecided])
                pvalues = ks_pvalues(statistics, self.dimension)
                passed[undecided] = pvalues >= self.significance
            accepted[rows] = passed
        return accepted

    def inspect_batch(self, uploads: np.ndarray) -> FirstStageBatchReport:
        """Run both tests on every row and return the per-row diagnostics.

        Every row gets its exact KS statistic and p-value, so this is the
        reference :meth:`accepts_batch` must agree with.  The whole matrix
        sorts at once, in this call's own buffers.
        """
        matrix = self._as_matrix(uploads)
        squared, norm_ok = self._norm_test_batch(matrix)
        statistics = ks_statistics(matrix, self.sigma)
        pvalues = ks_pvalues(statistics, self.dimension)
        ks_ok = pvalues >= self.significance
        return FirstStageBatchReport(
            accepted=norm_ok & ks_ok,
            norm_ok=norm_ok,
            ks_ok=ks_ok,
            squared_norms=squared,
            ks_pvalues=pvalues,
        )

    # ------------------------------------------------------------------ #
    # Theorem 2 helpers
    # ------------------------------------------------------------------ #
    def critical_ks_statistic(self) -> float:
        """Largest KS statistic that still passes at the configured significance."""
        return self._critical

    def coordinate_interval(self, k: int) -> tuple[float, float]:
        """Theorem 2: interval the k-th order statistic of an accepted upload must lie in."""
        return theorem2_interval(k, self.dimension, self.sigma, self._critical)
