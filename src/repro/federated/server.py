"""The central server: global model, aggregation rule, auxiliary data."""

from __future__ import annotations

import numpy as np

from repro.core.dp_protocol import upload_noise_std
from repro.core.config import DPConfig
from repro.data.dataset import Dataset
from repro.defenses.base import AggregationContext, Aggregator
from repro.federated.faults import QuorumError, resolve_quorum, validate_quorum
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential

__all__ = ["Server"]


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
    min_quorum:
        Minimum surviving cohort a round must deliver: an ``int >= 1``
        is an absolute upload count, a ``float`` in ``(0, 1]`` a fraction
        of the expected population.  :meth:`update` raises
        :class:`~repro.federated.faults.QuorumError` -- naming the round
        and the survivors -- when violated, *before* any shape
        validation, so an empty faulty round degrades cleanly.  The
        default of 1 only rejects empty rounds.
    """

    def __init__(
        self,
        model: Sequential,
        aggregator: Aggregator,
        learning_rate: float,
        dp_config: DPConfig,
        auxiliary: Dataset | None,
        rng: np.random.Generator,
        min_quorum: int | float = 1,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if aggregator.requires_auxiliary and auxiliary is None:
            raise ValueError(
                f"{type(aggregator).__name__} requires server auxiliary data"
            )
        validate_quorum(min_quorum)
        self.min_quorum = min_quorum
        self.model = model
        self.aggregator = aggregator
        self.learning_rate = learning_rate
        self.dp_config = dp_config
        self.auxiliary = auxiliary
        self.rng = rng
        self.round_index = 0

    def aggregation_context(self) -> AggregationContext:
        """Context object handed to the aggregation rule for this round."""
        return AggregationContext(
            model=self.model,
            auxiliary=self.auxiliary,
            upload_noise_std=upload_noise_std(self.dp_config),
            rng=self.rng,
        )

    def update(
        self,
        uploads: np.ndarray | list[np.ndarray],
        worker_ids: np.ndarray | None = None,
        population: int | None = None,
        expected: int | None = None,
    ) -> np.ndarray:
        """Aggregate the round's uploads and apply the model update.

        ``uploads`` is the round's ``(n_workers, d)`` matrix (a list of
        1-D uploads is also accepted and stacked by the aggregation
        rule); it is read, never written.  Returns the aggregated vector
        actually applied (useful for tests and diagnostics).

        Under faults the round delivers a partial cohort: ``uploads``
        then holds only the surviving ``(m, d)`` rows -- the round
        matrix's leading rows, where the survivors were moved, or a
        merged matrix when buffered late reports arrive -- ``worker_ids``
        maps each row to its worker index in the full population and
        ``population`` is the expected cohort size (quorum fractions and
        the second stage's accumulated scores are parameterised by it).
        The quorum check runs first, so an under-quorum round raises a
        clean :class:`~repro.federated.faults.QuorumError` rather than a
        shape error from the aggregation rule.

        When cohort subsampling decouples the per-worker state dimension
        from the round's reporting cohort, ``expected`` carries the
        number of workers the round *should* deliver (the quorum base),
        while ``population`` stays the registered-population size the
        per-worker server state is keyed by.  ``expected`` defaults to
        ``population`` -- the classic partial-cohort semantics.
        """
        survivors = (
            int(uploads.shape[0])
            if isinstance(uploads, np.ndarray)
            else len(uploads)
        )
        state_population = survivors if population is None else int(population)
        quorum_base = state_population if expected is None else int(expected)
        required = resolve_quorum(self.min_quorum, quorum_base)
        if survivors < required:
            raise QuorumError(
                round_index=self.round_index,
                survivors=survivors,
                required=required,
            )
        context = self.aggregation_context()
        if worker_ids is not None:
            context.worker_ids = np.asarray(worker_ids, dtype=np.int64)
            context.population = state_population
        aggregated = self.aggregator.aggregate(uploads, context)
        parameters = self.model.get_flat_parameters()
        self.model.set_flat_parameters(parameters - self.learning_rate * aggregated)
        self.round_index += 1
        return aggregated

    #: evaluation chunk size; bounds peak activation memory on large test sets
    eval_batch_size: int = 8192

    def evaluate(self, dataset: Dataset, batch_size: int | None = None) -> float:
        """Test accuracy of the current global model on ``dataset``.

        The forward pass runs in fixed-size chunks (``batch_size``, default
        :attr:`eval_batch_size`) so peak memory stays bounded by the chunk's
        activations rather than the whole test set; the result is identical
        to a single full-set forward.
        """
        batch_size = self.eval_batch_size if batch_size is None else batch_size
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        n = len(dataset)
        predictions = np.empty(n, dtype=np.int64)
        for start in range(0, n, batch_size):
            stop = min(start + batch_size, n)
            predictions[start:stop] = self.model.predict(dataset.features[start:stop])
        return accuracy(predictions, dataset.labels)
