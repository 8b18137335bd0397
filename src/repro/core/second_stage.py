"""Second-stage aggregation (Algorithm 3, lines 4-14).

The server estimates the true gradient from its tiny auxiliary dataset,
scores every (first-stage-filtered) upload by its **inner product** with
that estimate, suppresses scores below the mean of the top-``ceil(gamma n)``
scores, accumulates the surviving scores in a per-worker list ``S`` across
rounds, and finally selects the uploads of the ``ceil(gamma n)`` workers
with the highest accumulated score.  Selected uploads enter the model update
with weight 1; everything else is discarded (binary weights -- a deliberate
difference from FLTrust-style real-valued weighting, Section 4.5).

The one entry point is :meth:`SecondStageSelector.select_scored`: the
round's scores ``uploads @ server_gradient`` (one matvec over the round
matrix) and each row's worker id, which keys ``S``.  The two-stage rule
scores the unfiltered matrix and sets a rejected row's score to ``0.0``,
which is what Algorithm 2's zero vector would score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SecondStageSelector", "SecondStageReport"]


@dataclass(frozen=True)
class SecondStageReport:
    """Outcome of one round of the second-stage selection."""

    scores: np.ndarray
    threshold: float
    selected: np.ndarray
    accumulated: np.ndarray


class SecondStageSelector:
    """Inner-product score filter with an accumulated score list.

    Parameters
    ----------
    n_workers:
        Total number of workers ``n``.
    gamma:
        Server's belief of the honest fraction; ``ceil(gamma * n)`` uploads
        are kept every round.
    """

    def __init__(self, n_workers: int, gamma: float) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.n_workers = int(n_workers)
        self.gamma = float(gamma)
        self.keep = max(1, math.ceil(self.gamma * self.n_workers))
        # Server-maintained score list S (Algorithm 3 input).
        self.accumulated_scores = np.zeros(self.n_workers, dtype=np.float64)

    def reset(self) -> None:
        """Clear the accumulated score list (start of a fresh training run)."""
        self.accumulated_scores[:] = 0.0

    @staticmethod
    def _top_k_stable(values: np.ndarray, k: int) -> np.ndarray:
        """Indices (sorted ascending) of the ``k`` largest entries of ``values``.

        Ties at the boundary are broken towards the lowest index, exactly as
        a stable descending ``argsort`` would, but via ``np.argpartition``
        so the cost stays ``O(n)`` instead of ``O(n log n)``.
        """
        n = values.shape[0]
        if k >= n:
            return np.arange(n)
        partitioned = values.copy()
        partitioned.partition(n - k)
        boundary = partitioned[n - k]
        above = (values > boundary).nonzero()[0]
        if above.size == k:
            return above
        ties = (values == boundary).nonzero()[0]
        chosen = np.concatenate((above, ties[: k - above.size]))
        if chosen.size < k:
            # NaN scores (possible only when FirstAGG is off and a worker
            # uploads non-finite values) defeat the boundary comparisons;
            # fall back to the stable argsort the partition path replaces.
            order = np.argsort(-values, kind="stable")
            return np.sort(order[:k])
        return np.sort(chosen)

    @staticmethod
    def _threshold(scores: np.ndarray, keep: int) -> float:
        """Mean of the top ``keep`` entries of ``scores`` (Algorithm 3 line 9).

        The top-k values are found with a linear-time partition; they are
        then sorted descending so the mean accumulates in the same order
        as the scalar reference (bitwise-identical threshold).
        """
        m = scores.shape[0]
        if keep >= m:
            top = np.sort(scores)
        else:
            partitioned = scores.copy()
            partitioned.partition(m - keep)
            top = partitioned[m - keep:]
            top.sort()
        # add.reduce over the descending view is exactly np.mean's summation
        # (pairwise, same visit order) without the wrapper overhead.
        return float(np.add.reduce(top[::-1]) / keep)

    def select_scored(
        self, scores: np.ndarray, worker_ids: np.ndarray
    ) -> SecondStageReport:
        """Run lines 9-14 of Algorithm 3 on the round's inner-product scores.

        Lines 5-8 are the caller's one matvec, ``uploads @ server_gradient``.

        Parameters
        ----------
        scores:
            One inner-product score per upload row, ``(m,)``.
        worker_ids:
            The ``(m,)`` worker index of each row (``np.arange(n_workers)``
            for a full cohort).  The keep count and threshold follow the
            *realised* cohort size ``m`` (``ceil(gamma * m)``, :attr:`keep`
            when ``m == n_workers``), while ``S`` stays keyed by the full
            population -- a worker's standing survives rounds it misses,
            and duplicate ids (buffered straggler + fresh report)
            accumulate both rows' scores.

        Returns
        -------
        A :class:`SecondStageReport` whose ``selected`` field contains
        the *row* indices of the uploads that enter the model update
        (row ``i`` belongs to worker ``worker_ids[i]``).
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {scores.shape}")
        ids = np.asarray(worker_ids, dtype=np.int64)
        if scores.shape[0] != ids.shape[0]:
            raise ValueError(
                f"expected one score per worker id ({ids.shape[0]}), "
                f"got {scores.shape[0]}"
            )
        if ids.shape[0] == 0:
            raise ValueError("cannot select from an empty cohort")
        if ids.min() < 0 or ids.max() >= self.n_workers:
            raise ValueError(
                f"worker ids must be in [0, {self.n_workers}), got "
                f"[{ids.min()}, {ids.max()}]"
            )
        # Realised-cohort keep count: gamma of the m rows.
        keep = max(1, math.ceil(self.gamma * scores.shape[0]))

        # Line 9: mean of the top ceil(gamma m) scores is the threshold.
        threshold = self._threshold(scores, keep)

        # Lines 10-13: suppress scores below the threshold, accumulate.
        # The accumulator is keyed by worker identity, so partial cohorts
        # feed the same cross-round standing as full ones.
        round_scores = np.where(scores < threshold, 0.0, scores)
        np.add.at(self.accumulated_scores, ids, round_scores)

        # Line 14: select the rows whose workers have the highest
        # accumulated scores.
        selected = self._top_k_stable(self.accumulated_scores[ids], keep)

        return SecondStageReport(
            scores=scores,
            threshold=threshold,
            selected=selected,
            accumulated=self.accumulated_scores.copy(),
        )
