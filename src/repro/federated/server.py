"""The central server: global model, aggregation rule, auxiliary data.

The round checks its own quorum before it calls :meth:`Server.update`.
"""

from __future__ import annotations

import numpy as np

from repro.core.dp_protocol import upload_noise_std
from repro.core.config import DPConfig
from repro.data.dataset import Dataset
from repro.defenses.base import AggregationContext, Aggregator
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential

__all__ = ["Server"]

#: evaluation chunk size; bounds peak activation memory on large test sets
EVAL_BATCH_SIZE = 8192


class Server:
    """Aggregates uploads and maintains the global model.

    Parameters
    ----------
    model:
        The global model; its parameters are updated in place.
    aggregator:
        Any :class:`~repro.defenses.base.Aggregator` (the paper's
        :class:`~repro.core.protocol.TwoStageAggregator` or a baseline).
        The rule holds all of its settings; the two-stage rule's belief
        ``gamma`` about the honest fraction is its
        :class:`~repro.core.config.ProtocolConfig`'s.
    learning_rate:
        Server learning rate ``eta``.
    dp_config:
        The client-side DP configuration; the server knows the public
        protocol parameters and derives the upload noise level from them.
    auxiliary:
        The server's tiny labelled dataset (or ``None`` for defenses that do
        not use one).
    rng:
        Generator for any server-side randomness.
    """

    def __init__(
        self,
        model: Sequential,
        aggregator: Aggregator,
        learning_rate: float,
        dp_config: DPConfig,
        auxiliary: Dataset | None,
        rng: np.random.Generator,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if aggregator.requires_auxiliary and auxiliary is None:
            raise ValueError(
                f"{type(aggregator).__name__} requires server auxiliary data"
            )
        self.model = model
        self.aggregator = aggregator
        self.learning_rate = learning_rate
        self.dp_config = dp_config
        self.auxiliary = auxiliary
        self.rng = rng

    def update(
        self, uploads: np.ndarray, worker_ids: np.ndarray, population: int
    ) -> np.ndarray:
        """Aggregate the round's uploads and apply the model update.

        ``uploads`` is the round's ``(m, d)`` matrix of surviving rows --
        the round matrix's leading rows, where the survivors were moved,
        or a merged matrix when buffered late reports arrive; it is read,
        never written.  ``worker_ids`` maps each row to its worker index
        in the registered population (``np.arange(n)`` for a full
        cohort), and ``population`` is the size of that population, which
        the rule's per-worker state (the second stage's accumulated
        scores) is keyed by.  Returns the aggregated vector actually
        applied (useful for tests and diagnostics).
        """
        context = AggregationContext(
            model=self.model,
            auxiliary=self.auxiliary,
            upload_noise_std=upload_noise_std(self.dp_config),
            rng=self.rng,
            worker_ids=np.asarray(worker_ids, dtype=np.int64),
            population=int(population),
        )
        aggregated = self.aggregator.aggregate(uploads, context)
        parameters = self.model.get_flat_parameters()
        self.model.set_flat_parameters(parameters - self.learning_rate * aggregated)
        return aggregated

    def evaluate(self, dataset: Dataset) -> float:
        """Test accuracy of the current global model on ``dataset``.

        The forward pass runs in chunks of :data:`EVAL_BATCH_SIZE` rows, so
        peak memory stays bounded by a chunk's activations rather than
        the whole test set; the result is identical to a single full-set
        forward.
        """
        n = len(dataset)
        predictions = np.empty(n, dtype=np.int64)
        for start in range(0, n, EVAL_BATCH_SIZE):
            stop = min(start + EVAL_BATCH_SIZE, n)
            predictions[start:stop] = self.model.predict(dataset.features[start:stop])
        return accuracy(predictions, dataset.labels)
