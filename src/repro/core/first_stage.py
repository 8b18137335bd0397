"""First-stage aggregation: FirstAGG (Algorithm 2).

An upload is accepted only if it is statistically indistinguishable from a
vector dominated by the protocol's DP noise:

1. **Norm test** -- its squared l2-norm must lie inside the 3-sigma
   chi-square interval around ``sigma^2 d`` (Section 4.3).
2. **KS test** -- treating the coordinates as samples, a one-sample
   Kolmogorov-Smirnov test against ``N(0, sigma^2)`` must not reject at the
   configured significance level (0.05).

Rejected uploads are replaced by the zero vector, exactly as in Algorithm 2
(``g <- 0``), which removes their influence from the averaged update.

The filter is **array-first**: :meth:`FirstStageFilter.accepts_batch`
decides the round's whole ``(n_workers, d)`` upload matrix.  (The two-stage
rule applies the mask without copying; :meth:`FirstStageFilter.apply_batch`
returns Algorithm 2's zeroed matrix.)  One ``einsum`` gives every squared
norm.  The KS test uses Theorem 2: a filter precomputes, per rank, the
order-statistic bounds just inside and just outside the critical statistic
(:class:`repro.stats.ks.KSRankBounds`), so a round sorts the rows that
passed the norm test, a bounded block at a time, and decides each with
comparisons.  Only a row with an order statistic in the 1e-6 band between
the two gets its exact statistic and p-value, and the mask always equals
the one the p-values give.  The per-upload methods compute the p-value
itself and remain the scalar reference implementation and the tool for
interactive inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.ks import (
    KSRankBounds,
    KSWorkspace,
    critical_statistic,
    ks_pvalues,
    ks_statistics,
    ks_test,
    theorem2_interval,
)
from repro.stats.norm_test import squared_norm_interval

__all__ = ["FirstStageFilter", "FirstStageReport", "FirstStageBatchReport"]

#: Most bytes of sorted rows :meth:`FirstStageFilter.accepts_batch` decides
#: at once: 4 rows at the paper's d = 6570.
_KS_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class FirstStageReport:
    """Outcome of running FirstAGG on one upload."""

    accepted: bool
    norm_ok: bool
    ks_ok: bool
    squared_norm: float
    ks_pvalue: float


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
        # Scratch buffers reused by every batched call (one filter instance
        # serves a whole training run): the batched KS test sorts one
        # bounded block of rows into them at a time.
        self._ks_workspace = KSWorkspace()
        self._ks_block = max(1, _KS_BLOCK_BYTES // (8 * self.dimension))

    # ------------------------------------------------------------------ #
    # individual tests
    # ------------------------------------------------------------------ #
    def norm_bounds(self) -> tuple[float, float]:
        """Acceptance interval for the squared norm of an upload."""
        return self._norm_bounds

    def ks_pvalue(self, upload: np.ndarray) -> float:
        """KS-test p-value of the upload's coordinates against ``N(0, sigma^2)``."""
        return ks_test(upload, self.sigma).pvalue

    # ------------------------------------------------------------------ #
    # FirstAGG
    # ------------------------------------------------------------------ #
    def inspect(self, upload: np.ndarray) -> FirstStageReport:
        """Run both tests and return a detailed report."""
        upload = np.asarray(upload, dtype=np.float64)
        if upload.shape != (self.dimension,):
            raise ValueError(
                f"upload must have shape ({self.dimension},), got {upload.shape}"
            )
        squared = float(np.dot(upload, upload))
        low, high = self._norm_bounds
        norm_ok = low <= squared <= high
        pvalue = self.ks_pvalue(upload)
        ks_ok = pvalue >= self.significance
        return FirstStageReport(
            accepted=norm_ok and ks_ok,
            norm_ok=norm_ok,
            ks_ok=ks_ok,
            squared_norm=squared,
            ks_pvalue=pvalue,
        )

    def accepts(self, upload: np.ndarray) -> bool:
        """True if the upload passes FirstAGG."""
        return self.inspect(upload).accepted

    def apply(self, upload: np.ndarray) -> np.ndarray:
        """Algorithm 2: return the upload unchanged if accepted, else the zero vector."""
        if self.accepts(upload):
            return np.asarray(upload, dtype=np.float64)
        return np.zeros(self.dimension, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # batched FirstAGG (the server's per-round hot path)
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

        The KS test runs only on rows that passed the norm test, a block of
        at most ``_KS_BLOCK_BYTES`` at a time.  A block's sorted
        coordinates are compared with the filter's rank bounds; a row the
        bounds leave undecided gets its exact statistic and p-value.  Every
        step is per row, so the blocking moves no decision, and the mask
        equals ``norm_ok & (p-value >= significance)`` on every row.
        """
        matrix = self._as_matrix(uploads)
        _, accepted = self._norm_test_batch(matrix)
        candidates = np.flatnonzero(accepted)
        for start in range(0, candidates.size, self._ks_block):
            rows = candidates[start:start + self._ks_block]
            ordered = self._ks_workspace.sort_rows(matrix, rows)
            passed, undecided = self._rank_bounds.decide(ordered)
            if undecided.any():
                statistics = ks_statistics(
                    matrix, self.sigma, workspace=self._ks_workspace,
                    rows=rows[undecided],
                )
                pvalues = ks_pvalues(statistics, self.dimension)
                passed[undecided] = pvalues >= self.significance
            accepted[rows] = passed
        return accepted

    def inspect_batch(self, uploads: np.ndarray) -> FirstStageBatchReport:
        """Run both tests on every row and return the per-row diagnostics.

        The whole matrix sorts in this call's own temporaries, so the
        shared workspace stays one :meth:`accepts_batch` block.
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

    def apply_batch(self, uploads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 3, lines 1-3 on the whole round at once.

        Returns ``(filtered, accepted)`` where ``filtered`` is the ``(n, d)``
        matrix with rejected rows zeroed and ``accepted`` is the boolean
        acceptance mask.  The mask is authoritative: a legitimately accepted
        all-zero upload is reported as accepted, which a ``bool(np.any(row))``
        reconstruction from ``filtered`` would miss.

        When every row is accepted (the common benign round) the input
        matrix itself is returned without copying -- treat ``filtered`` as
        read-only.
        """
        matrix = self._as_matrix(uploads)
        accepted = self.accepts_batch(matrix)
        if accepted.all():
            return matrix, accepted
        filtered = np.where(accepted[:, np.newaxis], matrix, 0.0)
        return filtered, accepted

    def filter_all(self, uploads: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Apply FirstAGG to every upload (Algorithm 3, lines 1-3).

        Accepts a stacked ``(n, d)`` matrix (preferred) or a list of 1-D
        uploads and returns the filtered ``(n, d)`` matrix.
        """
        filtered, _ = self.apply_batch(np.asarray(uploads, dtype=np.float64))
        return filtered

    # ------------------------------------------------------------------ #
    # Theorem 2 helpers
    # ------------------------------------------------------------------ #
    def critical_ks_statistic(self) -> float:
        """Largest KS statistic that still passes at the configured significance."""
        return self._critical

    def coordinate_interval(self, k: int) -> tuple[float, float]:
        """Theorem 2: interval the k-th order statistic of an accepted upload must lie in."""
        return theorem2_interval(k, self.dimension, self.sigma, self._critical)
