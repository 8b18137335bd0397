"""Aggregator interface shared by all defenses and by the paper's protocol.

An aggregator consumes the ``n`` uploads of one round plus an
:class:`AggregationContext` describing what the server legitimately knows
each round (its own model copy, its auxiliary data, the protocol's noise
level, which workers reported) and returns the vector used in the model
update ``w <- w - eta * aggregate``.  A rule's own settings -- the
two-stage rule's belief ``gamma`` about the honest fraction among them --
are constructor arguments, not context.

**Array-first contract.**  The canonical upload representation is a stacked
``(n_workers, d)`` ``float64`` matrix: the federated loop hands the honest
and Byzantine uploads to the server as one round matrix and every rule
operates on it with whole-matrix NumPy kernels (no per-upload Python loops
on the hot path).  For convenience -- interactive use, existing tests,
external callers -- ``aggregate`` also accepts a sequence of 1-D vectors,
which :meth:`Aggregator._validate` stacks once at the boundary; a 2-D
``float64`` C-contiguous array passes through without copying.

``aggregate`` never writes its input: a rule that discards uploads (the
two-stage filter zeroes rejected ones, in the paper's terms) masks or
copies instead, so the caller's matrix is byte-identical afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.nn.network import Sequential

__all__ = ["AggregationContext", "Aggregator"]


@dataclass
class AggregationContext:
    """Information available to the server when aggregating one round.

    Attributes
    ----------
    model:
        The current global model (parameters already set to ``w_{t-1}``).
    auxiliary:
        The server's tiny labelled auxiliary dataset, or ``None`` if the
        defense does not use one.
    upload_noise_std:
        Per-coordinate standard deviation of the DP noise carried by an
        honest upload (``sigma / b_c``); 0 for non-private runs.
    rng:
        Generator for any randomness the aggregator needs.
    worker_ids:
        The ``(m,)`` worker index of each upload row -- sorted ascending,
        possibly with duplicates when buffered straggler reports join a
        fresh one.  Rules that keep per-worker state across rounds key it
        by these ids.  The server always passes them; the ``None``
        default, for direct callers, means a full cohort (row ``i``
        belongs to worker ``i``).
    population:
        Number of workers the per-worker state is keyed by (the server
        passes its registered population); ``None``, for direct
        callers, means the number of rows.
    """

    model: Sequential
    auxiliary: Dataset | None
    upload_noise_std: float
    rng: np.random.Generator
    worker_ids: np.ndarray | None = None
    population: int | None = None

    def server_gradient(self) -> np.ndarray:
        """Gradient of the loss on the auxiliary data at the current model."""
        if self.auxiliary is None:
            raise ValueError("this aggregation rule requires server auxiliary data")
        _, gradient = self.model.mean_gradient(
            self.auxiliary.features, self.auxiliary.labels
        )
        return gradient


class Aggregator:
    """Base class: turn the round's uploads into a single update vector."""

    #: whether the rule needs ``context.auxiliary`` to be populated
    requires_auxiliary: bool = False

    def aggregate(
        self, uploads: np.ndarray | list[np.ndarray], context: AggregationContext
    ) -> np.ndarray:
        """Aggregate one round of uploads into the model-update vector.

        ``uploads`` is the stacked ``(n_workers, d)`` float64 matrix of the
        round (rows ordered honest-then-Byzantine by the federated loop); a
        sequence of 1-D vectors is accepted and stacked at the boundary.
        Implementations must not write ``uploads``.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any cross-round state (default: stateless)."""

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot the rule's evolving cross-round state.

        Stateless rules (the default) return ``{}``.  Stateful rules must
        return a flat mapping of names to arrays so a crash-tolerant
        restart can replay the run bitwise (see
        :mod:`repro.federated.state`).
        """
        return {}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        The default accepts only the empty snapshot; stateful rules
        override both ends of the round trip.
        """
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless but the snapshot "
                f"carries aggregator state: {sorted(state)}"
            )

    @staticmethod
    def _validate(uploads: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Return the uploads as an ``(n, d)`` float64 matrix.

        A 2-D float64 array is passed through as-is (no copy); anything else
        is stacked/converted once here so the rule bodies can assume the
        canonical matrix representation.
        """
        if isinstance(uploads, np.ndarray):
            if uploads.ndim != 2:
                raise ValueError(
                    f"uploads matrix must be 2-D (n_workers, d), got shape {uploads.shape}"
                )
            if uploads.shape[0] == 0:
                raise ValueError("cannot aggregate an empty round of uploads")
            return np.asarray(uploads, dtype=np.float64)
        if not uploads:
            raise ValueError("cannot aggregate an empty list of uploads")
        stacked = np.vstack([np.asarray(u, dtype=np.float64) for u in uploads])
        if stacked.ndim != 2:
            raise ValueError("uploads must be flat vectors")
        return stacked
