"""Pluggable client compute engines.

A *client engine* is the strategy a :class:`~repro.federated.worker
.WorkerPool` uses to turn one shard's sampled mini-batches into protocol
uploads (Algorithm 1, lines 4-12).  Engines are registered in the
:data:`ENGINES` registry, so the compute backend is a scenario axis like
attacks, defenses, datasets and models: ``ExperimentConfig(engine=...)``,
``python -m repro run --engine ...`` and ``python -m repro list`` all see
third-party engines registered through the public
:class:`repro.registry.Registry` API.  An engine is always a name
(:data:`DEFAULT_ENGINE` unless told otherwise): each thread that runs
shard tasks keeps one engine per name (see :mod:`repro.federated.worker`).

Both built-in engines start from one capture pass over the shard,
:meth:`~repro.nn.network.Sequential.per_example_grad_factors`: a
forward/backward that records each linear layer's input ``X`` and output
gradient ``Delta`` (the per-example gradient is the rank-1 ``x_j (x)
delta_j``) and never forms the gradient with respect to the network input.
Its activations grow with the shard's rows times the layer widths, so
``shard_size`` is what bounds them.

- :class:`MaterializedEngine` -- the exact reference: it expands the
  factors into per-example gradients and feeds them to
  :func:`repro.core.dp_protocol.local_update_batch`, bitwise identical to
  the scalar protocol's summation order.  Algorithm 1 bounds, sums and
  noises each worker on its own, so the engine works through the shard in
  **groups** of whole workers whose ``(rows, d)`` expansion fits
  :data:`_GROUP_BYTES` (one worker at the paper shape), reusing one
  scratch for every group.  Every expanded value is a single rounded
  product and every later step is per row, so grouping changes no bit.
- :class:`GhostNormEngine` -- the "ghost norm" trick for stacks of
  :class:`~repro.nn.layers.Linear` layers.  The slot Gram matrix
  factorises as ``(X X^T) (.) (Delta Delta^T)``, so

  * slot norms come from the Gram *diagonals* plus three small momentum
    cross terms, and
  * the normalised (or clipped) slot sum comes from one weighted batched
    GEMM per layer,

  without ever allocating a per-example gradient.  Uploads agree with the
  materialized path to ~1e-15 relative (different floating-point
  summation order); the equivalence gate is therefore tolerance-based
  (``rtol 1e-9``), not bitwise.  Noise and sampling use the same
  per-worker generator draws, so the DP noise is bit-identical across
  engines.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DPConfig
from repro.core.dp_protocol import (
    BatchedDPState,
    bounding_factors,
    finalize_uploads,
    local_update_batch,
)
from repro.nn.network import Sequential, expand_grad_factors
from repro.registry import Registry

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "ClientEngine",
    "GhostNormEngine",
    "MaterializedEngine",
    "available_engines",
    "build_engine",
    "pairwise_gradient_gram",
]

#: Global registry of client compute engines.
ENGINES = Registry("engine")

#: The engine a pool, an experiment config and ``--engine`` use unless told
#: otherwise: the exact reference.
DEFAULT_ENGINE = "materialized"

#: Expansion budget of one materialized worker group: a ``(rows, d)``
#: float64 scratch that stays in cache while the group is bounded.
_GROUP_BYTES = 1 << 20


def _worker_groups(n_workers: int, batch: int, dimension: int) -> list[tuple[int, int]]:
    """Half-open worker ranges of the materialized engine's groups, in order.

    Each group holds as many whole workers as fit :data:`_GROUP_BYTES`, and
    at least one.  No group holds exactly one stacked row unless the whole
    shard does: the row norms' ``einsum`` reduces a lone row of d > 8192 in
    another order than the same row among others.  So at ``b_c = 1`` a
    group takes at least two workers, and a lone last worker joins the
    group before it.
    """
    size = max(_GROUP_BYTES // (batch * dimension * 8), 1 if batch > 1 else 2)
    starts = list(range(0, n_workers, size))
    if batch == 1 and len(starts) > 1 and n_workers - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_workers]))


class ClientEngine:
    """Base class of client compute engines.

    An engine is a stateless-between-rounds compute strategy; per-round
    scratch buffers may be cached on the instance (they are keyed by shape,
    so one engine instance can serve several pool shards, and honest and
    Byzantine pools may share an instance).
    """

    def compute_uploads(
        self,
        model: Sequential,
        features: np.ndarray,
        labels: np.ndarray,
        n_workers: int,
        state: BatchedDPState,
        config: DPConfig,
        rngs: list[np.random.Generator],
    ) -> np.ndarray:
        """One protocol iteration for ``n_workers`` workers.

        Parameters
        ----------
        model:
            The current global model (parameters already broadcast).
        features, labels:
            The stacked sampled mini-batches, shapes ``(n_workers * b_c,
            dim)`` and ``(n_workers * b_c,)``, worker-major.
        n_workers:
            Number of workers in this shard.
        state:
            The shard's momentum state (``slot_momentum`` may be a view
            into the pool's full state), updated in place.
        config:
            Shared client-side DP settings.
        rngs:
            One generator per worker, in worker order (noise draws).

        Returns
        -------
        Uploads of shape ``(n_workers, d)``.  The array may be engine-owned
        scratch or ``state.slot_momentum`` itself, overwritten by the next
        call -- the caller copies it out.
        """
        raise NotImplementedError


@ENGINES.register(
    "materialized",
    aliases=("stacked",),
    summary="stacked per-example gradients through local_update_batch (exact reference)",
)
class MaterializedEngine(ClientEngine):
    """The stacked per-example-gradient path, one group of workers at a time.

    Captures the shard's gradient factors once, then for each group of
    :func:`_worker_groups` expands the group's exact per-example gradients
    into one flat ``(rows, d)`` scratch (reused across groups and rounds,
    sized by the largest group it has served) and feeds it to
    :func:`~repro.core.dp_protocol.local_update_batch` with the group's
    momentum rows and generators.  The uploads land in the shard's
    momentum rows (Algorithm 1 line 11: the momentum *is* the upload),
    which the call returns.  Bitwise identical to the scalar per-worker
    protocol.
    """

    def __init__(self) -> None:
        self._gradients: np.ndarray | None = None

    def compute_uploads(
        self,
        model: Sequential,
        features: np.ndarray,
        labels: np.ndarray,
        n_workers: int,
        state: BatchedDPState,
        config: DPConfig,
        rngs: list[np.random.Generator],
    ) -> np.ndarray:
        """Per group: expand per-example gradients, then finalise the DP uploads.

        Returns ``state.slot_momentum``, which holds the uploads.
        """
        batch = config.batch_size
        dimension = model.num_parameters
        state.ensure_shape(n_workers, batch, dimension)
        momentum = state.slot_momentum
        _, factors = model.per_example_grad_factors(features, labels)
        groups = _worker_groups(n_workers, batch, dimension)
        rows = max(stop - start for start, stop in groups) * batch
        scratch = self._gradients
        if scratch is None or scratch.shape[0] < rows or scratch.shape[1] != dimension:
            scratch = self._gradients = np.empty((rows, dimension), dtype=np.float64)
        for start, stop in groups:
            gradients = expand_grad_factors(
                factors, scratch[: (stop - start) * batch], start * batch
            )
            group = BatchedDPState(slot_momentum=momentum[start:stop], batch_size=batch)
            local_update_batch(
                gradients.reshape(stop - start, batch, dimension),
                group, config, rngs[start:stop],
            )
        return momentum


@ENGINES.register(
    "ghost_norm",
    aliases=("ghost",),
    summary="Gram-matrix slot norms + weighted GEMM sums; never materialises per-example gradients",
)
class GhostNormEngine(ClientEngine):
    """Ghost-norm client path for stacks of linear layers.

    With momentum state ``m_i`` (rank-1 across slots, Algorithm 1 line 11)
    and per-example gradient ``g_ij``, the momentum slot is ``phi_ij =
    (1 - beta) g_ij + beta m_i`` and everything the protocol needs follows
    from inner products that factorise through the layer factors
    ``(X, Delta)`` captured by
    :meth:`~repro.nn.network.Sequential.per_example_grad_factors`:

    - ``||g_ij||^2  = sum_l (||x^l_ij||^2 + 1) ||delta^l_ij||^2``
      (the diagonal of the slot Gram matrix
      ``(X X^T + 1) (.) (Delta Delta^T)``; the ``+1`` is the bias block);
    - ``<g_ij, m_i> = sum_l (x^l_ij)^T M^l_i delta^l_ij + (c^l_i)^T
      delta^l_ij`` with ``M^l_i, c^l_i`` the per-layer blocks of ``m_i``
      (two batched GEMM-shaped contractions);
    - ``||phi_ij||^2 = (1-beta)^2 ||g_ij||^2 + 2 beta (1-beta)
      <g_ij, m_i> + beta^2 ||m_i||^2``;
    - the bounded slot sum ``sum_j w_ij phi_ij = (1-beta) sum_l X_l^T
      (w (.) Delta_l) + beta (sum_j w_ij) m_i`` where ``w`` are the
      norms-provided bounding factors
      (:func:`~repro.core.dp_protocol.bounding_factors`).

    Total cost is ~2 batched GEMMs per layer (the same order as the
    forward pass) and the peak extra memory is one ``(n_workers, d)``
    bounded-sum buffer -- no per-example gradient exists, not even the
    materialized path's one-group scratch.
    """

    def __init__(self) -> None:
        self._bounded: np.ndarray | None = None

    def compute_uploads(
        self,
        model: Sequential,
        features: np.ndarray,
        labels: np.ndarray,
        n_workers: int,
        state: BatchedDPState,
        config: DPConfig,
        rngs: list[np.random.Generator],
    ) -> np.ndarray:
        """Finalise uploads from Gram-diagonal slot norms;
        the per-example gradient tensor is never materialised.
        """
        batch = config.batch_size
        dimension = model.num_parameters
        beta = config.momentum
        state.ensure_shape(n_workers, batch, dimension)
        momentum = state.slot_momentum  # (n, d), rank-1 across slots

        _, factors = model.per_example_grad_factors(features, labels)
        layout = model.parameter_layout()

        # Per-layer factors reshaped worker-major: X_l (n, b, in), D_l (n, b, out).
        shaped = [
            (inputs.reshape(n_workers, batch, -1), deltas.reshape(n_workers, batch, -1))
            for _, inputs, deltas in factors
        ]

        # Slot gradient norms from the Gram diagonals:
        # ||g_ij||^2 = sum_l (||x||^2 + 1) ||delta||^2.
        slot_sq = np.zeros((n_workers, batch), dtype=np.float64)
        for inputs, deltas in shaped:
            input_sq = np.einsum("nbi,nbi->nb", inputs, inputs)
            delta_sq = np.einsum("nbo,nbo->nb", deltas, deltas)
            input_sq += 1.0  # the bias gradient contributes ||delta||^2
            input_sq *= delta_sq
            slot_sq += input_sq

        # ||phi_ij||^2 via the momentum cross terms (skipped at beta = 0,
        # where phi = (1 - beta) g exactly).
        np.multiply(slot_sq, (1.0 - beta) ** 2, out=slot_sq)
        if beta > 0.0:
            # vecdot, unlike einsum, reduces a row in the same order
            # whatever the row count, so shard size cannot move a bit.
            momentum_sq = np.vecdot(momentum, momentum)
            cross = np.zeros((n_workers, batch), dtype=np.float64)
            for ((_, slices), (inputs, deltas)) in zip(layout, shaped):
                (w_start, w_stop, w_shape), (b_start, b_stop, _) = slices
                weight_block = momentum[:, w_start:w_stop].reshape(
                    n_workers, *w_shape
                )
                bias_block = momentum[:, b_start:b_stop]
                # <x (x) delta, M> = x^T M delta, batched over workers.
                projected = np.matmul(inputs, weight_block)  # (n, b, out)
                cross += np.einsum("nbo,nbo->nb", projected, deltas)
                cross += np.einsum("no,nbo->nb", bias_block, deltas)
            slot_sq += (2.0 * beta * (1.0 - beta)) * cross
            slot_sq += (beta * beta) * momentum_sq[:, np.newaxis]
        # The factorised sum can round a true ~0 norm slightly negative.
        np.maximum(slot_sq, 0.0, out=slot_sq)

        weights = bounding_factors(np.sqrt(slot_sq), config)  # (n, b)

        # Bounded slot sum without materialising the slots:
        # (1-beta) sum_l X_l^T (w (.) Delta_l)  [+ beta (sum_j w_ij) m_i].
        bounded = self._bounded
        if bounded is None or bounded.shape[0] < n_workers or bounded.shape[1] != dimension:
            bounded = self._bounded = np.empty((n_workers, dimension), dtype=np.float64)
        bounded = bounded[:n_workers]
        for ((_, slices), (inputs, deltas)) in zip(layout, shaped):
            (w_start, w_stop, _), (b_start, b_stop, _) = slices
            weighted_deltas = weights[:, :, np.newaxis] * deltas  # (n, b, out)
            weight_sum = np.matmul(
                inputs.swapaxes(1, 2), weighted_deltas
            )  # (n, in, out)
            bounded[:, w_start:w_stop] = weight_sum.reshape(n_workers, -1)
            bounded[:, b_start:b_stop] = weighted_deltas.sum(axis=1)
        np.multiply(bounded, 1.0 - beta, out=bounded)
        if beta > 0.0:
            bounded += (beta * weights.sum(axis=1))[:, np.newaxis] * momentum

        return finalize_uploads(bounded, state, config, rngs)


def pairwise_gradient_gram(
    model: Sequential,
    features: np.ndarray,
    labels: np.ndarray,
    n_workers: int,
) -> np.ndarray:
    """Per-worker Gram matrices of the per-example flat gradients.

    Returns ``(n_workers, b, b)`` with entry ``[i, j, k] = <g_ij, g_ik>``,
    computed through the ghost factorisation ``sum_l (X_l X_l^T + 1) (.)
    (Delta_l Delta_l^T)`` -- the object the ghost-norm engine takes the
    diagonal of.  Exposed for tests and diagnostics (the full ``b x b``
    matrix is also what pairwise-similarity defenses would consume).
    """
    _, factors = model.per_example_grad_factors(features, labels)
    batch = features.shape[0] // n_workers
    gram = np.zeros((n_workers, batch, batch), dtype=np.float64)
    for (_, inputs, deltas) in factors:
        x = inputs.reshape(n_workers, batch, -1)
        d = deltas.reshape(n_workers, batch, -1)
        input_gram = np.matmul(x, x.swapaxes(1, 2))
        delta_gram = np.matmul(d, d.swapaxes(1, 2))
        input_gram += 1.0  # bias block
        input_gram *= delta_gram
        gram += input_gram
    return gram


def available_engines() -> list[str]:
    """Names accepted by :func:`build_engine` (and the ``--engine`` flag)."""
    return ENGINES.names()


def build_engine(name: str | None) -> ClientEngine:
    """A new engine of the registered ``name`` (``None``: :data:`DEFAULT_ENGINE`).

    Anything but a registered name, an engine instance included, raises
    the registry's :class:`~repro.registry.UnknownComponentError`.
    """
    return ENGINES.build(DEFAULT_ENGINE if name is None else name)
