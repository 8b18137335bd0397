"""The paper's full server-side aggregation rule (Algorithm 3).

:class:`TwoStageAggregator` composes the first-stage statistical filter
(FirstAGG) with the second-stage inner-product selection, then averages the
selected uploads over the *total* number of workers ``n`` (Algorithm 1,
line 14).  Both stages can be switched off individually for the ablation
benchmarks.

Algorithm 2 swaps a rejected upload for the zero vector.  The rule applies
that as a **mask** over the round matrix instead of a zeroed copy: a
rejected row scores ``0.0`` and is left out of the sum.  That is bitwise
what the zeroed rows give, because a matvec entry depends only on its own
row, the vector and the matrix shape (a zero row scores ``+0.0``), and the
axis-0 sum adds rows in order, so dropping zero rows changes nothing but
possibly the sign of an all-zero coordinate.  The one difference: with a
non-finite server gradient a rejected row scores ``0.0`` where a zero row
would score NaN.  The input matrix is never written.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import ProtocolConfig
from repro.core.first_stage import FirstStageFilter
from repro.core.second_stage import SecondStageSelector
from repro.defenses.base import AggregationContext, Aggregator

__all__ = ["TwoStageAggregator"]


# Registered in repro.defenses.registry (as two_stage / first_stage_only /
# second_stage_only builders): repro.core must stay importable without the
# defenses package, so the registration cannot live here.
class TwoStageAggregator(Aggregator):  # repro-lint: disable=REP004 -- registered in defenses.registry
    """Private-and-secure aggregation: FirstAGG + FilterGradient.

    Parameters
    ----------
    config:
        Protocol configuration (``gamma``, KS significance, norm width and
        the ablation switches).

    Notes
    -----
    - The first stage needs the DP noise level of an upload; it is read from
      ``context.upload_noise_std`` each round and the filter is rebuilt when
      the value (or the model size) changes.  When the context reports zero
      noise (non-private runs) the first stage is skipped because its null
      hypothesis is undefined.
    - The second stage maintains the accumulated score list ``S`` across
      rounds, so a single aggregator instance must be used for a whole
      training run; call :meth:`reset` to start a new run.
    """

    requires_auxiliary = True

    def __init__(self, config: ProtocolConfig | None = None) -> None:
        self.config = config if config is not None else ProtocolConfig()
        self._first_stage: FirstStageFilter | None = None
        self._second_stage: SecondStageSelector | None = None
        self.last_selected: np.ndarray | None = None
        self.last_first_stage_accepted: np.ndarray | None = None

    def reset(self) -> None:
        """Forget all cross-round state (score list and cached filters)."""
        self._first_stage = None
        self._second_stage = None
        self.last_selected = None
        self.last_first_stage_accepted = None

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot the accumulated score list ``S`` (Algorithm 3).

        The first-stage filter is a pure function of the round's noise
        level and dimension, so only the second stage carries state a
        bitwise replay needs.
        """
        if self._second_stage is None:
            return {}
        return {
            "accumulated_scores": self._second_stage.accumulated_scores.copy()
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.reset()
        scores = state.get("accumulated_scores")
        if scores is None:
            return
        scores = np.asarray(scores, dtype=np.float64)
        selector = self._second_stage_selector(scores.shape[0])
        selector.accumulated_scores[:] = scores

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _first_stage_filter(
        self, dimension: int, noise_std: float
    ) -> FirstStageFilter:
        rebuild = (
            self._first_stage is None
            or self._first_stage.dimension != dimension
            or not math.isclose(self._first_stage.sigma, noise_std, rel_tol=1e-9)
        )
        if rebuild:
            self._first_stage = FirstStageFilter(
                sigma=noise_std,
                dimension=dimension,
                significance=self.config.ks_significance,
                norm_k=self.config.norm_k,
            )
        return self._first_stage

    def _second_stage_selector(self, n_workers: int) -> SecondStageSelector:
        if self._second_stage is None or self._second_stage.n_workers != n_workers:
            self._second_stage = SecondStageSelector(
                n_workers=n_workers, gamma=self.config.gamma
            )
        return self._second_stage

    # ------------------------------------------------------------------ #
    # Aggregator interface
    # ------------------------------------------------------------------ #
    def aggregate(
        self, uploads: np.ndarray | list[np.ndarray], context: AggregationContext
    ) -> np.ndarray:
        matrix = self._validate(uploads)
        n_workers, dimension = matrix.shape
        # Under faults the matrix holds only the surviving rows; the
        # second stage stays keyed by the expected population so a
        # worker's accumulated score survives rounds it misses.  A
        # context without ids is a full cohort: row i is worker i.
        worker_ids = np.arange(n_workers) if context.worker_ids is None else context.worker_ids
        population = n_workers if context.population is None else context.population

        # Stage 1: batched FirstAGG (Algorithm 3, lines 1-3) as a mask --
        # its acceptance statistics are per-upload, so a partial cohort
        # simply filters fewer rows.  The filter's mask is authoritative
        # for acceptance: an accepted all-zero upload must not be
        # misreported as rejected.
        if self.config.use_first_stage and context.upload_noise_std > 0:
            first_stage = self._first_stage_filter(dimension, context.upload_noise_std)
            accepted = first_stage.accepts_batch(matrix)
        else:
            accepted = np.ones(n_workers, dtype=bool)
        self.last_first_stage_accepted = accepted

        # Stage 2: inner-product selection (Algorithm 3, lines 4-14).  A
        # rejected row scores 0.0, as its zero vector would.
        if self.config.use_second_stage:
            selector = self._second_stage_selector(population)
            scores = matrix @ context.server_gradient()
            scores[~accepted] = 0.0
            selected = selector.select_scored(scores, worker_ids).selected
            summed = selected[accepted[selected]]
        else:
            selected = np.arange(n_workers)
            summed = np.flatnonzero(accepted)
        self.last_selected = selected

        # Model update term (Algorithm 1, line 14): the accepted selected
        # rows, averaged over the round's realised cohort (all n workers
        # on the fault-free path).  They are summed where they lie, in
        # ``summed`` order from zero: the bits of ``matrix[summed].sum(
        # axis=0)``, whose axis-0 reduction adds rows in order.
        total = np.zeros(dimension, dtype=np.float64)
        for row in summed.tolist():
            total += matrix[row]
        total /= n_workers
        return total
