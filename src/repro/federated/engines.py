"""Pluggable client compute engines.

A *client engine* is the strategy a :class:`~repro.federated.worker
.WorkerPool` uses to turn one shard's sampled mini-batches into protocol
uploads (Algorithm 1, lines 4-12).  Engines are registered in the
:data:`ENGINES` registry, so the compute backend is a scenario axis like
attacks, defenses, datasets and models: ``ExperimentConfig(engine=...)``,
``python -m repro run --engine ...`` and ``python -m repro list`` all see
third-party engines registered through the public
:class:`repro.registry.Registry` API.

Two engines ship built-in:

- :class:`MaterializedEngine` -- the stacked per-example-gradient path:
  forward/backward passes whose flat gradients feed
  :func:`repro.core.dp_protocol.local_update_batch`.  This is the exact
  batched reference implementation (bitwise identical to the scalar
  protocol's summation order).  It works in **blocks**: contiguous runs
  of whole workers whose ``(rows, d)`` gradient scratch stays within
  :data:`_BLOCK_BYTES`, about one L2 cache, so a shard's ``(n b_c, d)``
  gradient tensor never exists.  Algorithm 1 bounds, sums and noises each
  worker independently, so blocking changes no result; a call that fits
  the budget is one block.  :func:`block_plan` keeps every block but the
  last at a multiple of 4 rows and every block at 64 rows or more, which
  keeps the stacked GEMMs on the row-count-independent kernels (see
  :mod:`repro.federated.worker`).
- :class:`GhostNormEngine` -- the "ghost norm" trick for stacks of
  :class:`~repro.nn.layers.Linear` layers.  The per-example gradient of a
  linear layer is the rank-1 outer product ``x_j (x) delta_j``, so the
  slot Gram matrix factorises as ``(X X^T) (.) (Delta Delta^T)`` and

  * slot norms come from the Gram *diagonals* plus three small momentum
    cross terms, and
  * the normalised (or clipped) slot sum comes from one weighted batched
    GEMM per layer,

  without ever allocating the ``(n b_c, d)`` per-example gradient tensor.
  Uploads agree with the materialized path to ~1e-15 relative (different
  floating-point summation order); the equivalence gate is therefore
  tolerance-based (``rtol 1e-9``), not bitwise.  Noise and sampling use
  the same per-worker generator draws, so the DP noise is bit-identical
  across engines.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.core.config import DPConfig, EngineConfig
from repro.core.dp_protocol import (
    BatchedDPState,
    bounding_factors,
    finalize_uploads,
    local_update_batch,
)
from repro.nn.losses import softmax_cross_entropy
from repro.nn.network import Sequential
from repro.registry import Registry

__all__ = [
    "ENGINES",
    "ClientEngine",
    "GhostNormEngine",
    "MaterializedEngine",
    "available_engines",
    "block_plan",
    "build_engine",
    "pairwise_gradient_gram",
]

#: Global registry of client compute engines.
ENGINES = Registry("engine")

#: Gradient scratch budget of one materialized block, about one L2 cache.
_BLOCK_BYTES = 4 << 20

#: Fewest stacked rows in a block (unless the whole call holds fewer): far
#: above the row counts where BLAS switches to its small-matrix kernels.
_MIN_BLOCK_ROWS = 64


def block_plan(n_workers: int, batch: int, dimension: int) -> list[tuple[int, int]]:
    """Half-open worker ranges of the materialized engine's blocks, in order.

    Blocks are contiguous runs of whole workers.  Every block holds at
    least :data:`_MIN_BLOCK_ROWS` stacked rows unless the whole call holds
    fewer, and every block but the last holds a multiple of 4 rows, so
    each stacked GEMM row is computed by the same BLAS kernel as in one
    call over all rows.  Within those rules the plan is the fewest blocks
    whose ``(rows, d)`` float64 scratch fits :data:`_BLOCK_BYTES`, as
    near-equal as the rules allow (the blocks before the last differ by at
    most the fewest workers holding a multiple of 4 rows, larger ones
    first), so the model's gradient-buffer binding rarely changes.  When
    no plan fits, the blocks are the smallest the rules allow.
    """
    fit = _BLOCK_BYTES // (batch * dimension * 8)  # most workers within budget
    if n_workers <= fit:
        return [(0, n_workers)]
    step = 4 // math.gcd(batch, 4)  # fewest workers holding a multiple of 4 rows
    last_least = -(-_MIN_BLOCK_ROWS // batch)  # fewest workers in the last block
    least = -(-last_least // step) * step  # ... and in every other block
    count = max(1, n_workers // least)
    rest = (count - 1) * least  # workers before the last block
    for blocks in range(max(2, -(-n_workers // max(fit, 1))),
                        (n_workers - last_least) // least + 2):
        # `rest` must split into blocks - 1 blocks of least..fit workers
        # (multiples of step) and leave last_least..fit for the last one.
        low = max((blocks - 1) * least, n_workers - fit)
        high = min((blocks - 1) * (fit // step * step), n_workers - last_least)
        low, high = -(-low // step) * step, high // step * step
        if low <= high:
            even = round(n_workers * (blocks - 1) / blocks / step) * step
            count, rest = blocks, min(max(even, low), high)
            break
    units, larger = divmod(rest // step, max(count - 1, 1))
    bounds, start = [], 0
    for index in range(count - 1):
        stop = start + (units + (index < larger)) * step
        bounds.append((start, stop))
        start = stop
    return bounds + [(start, n_workers)]


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

    def release(self) -> None:
        """Drop any cached scratch buffers (no-op by default)."""

    def clone(self) -> "ClientEngine":
        """A fresh engine of the same configuration.

        Parallel execution backends give every concurrent worker slot its
        own engine (scratch buffers are per-instance and not thread-safe).
        The default deep-copies the instance and drops the copy's scratch;
        engines with cheaper fresh-construction may override.
        """
        duplicate = copy.deepcopy(self)
        duplicate.release()
        return duplicate


@ENGINES.register(
    "materialized",
    aliases=("stacked",),
    summary="stacked per-example gradients through local_update_batch (exact reference)",
)
class MaterializedEngine(ClientEngine):
    """The stacked per-example-gradient path, one block of workers at a time.

    For each block of :func:`block_plan`, runs
    :meth:`~repro.nn.network.Sequential.per_example_gradients` into one
    flat ``(rows, d)`` gradient buffer (reused across blocks and rounds;
    sized by the largest block it has served, so it stays within
    :data:`_BLOCK_BYTES` whenever the plan's row rules allow) and feeds
    it to :func:`~repro.core.dp_protocol.local_update_batch` with the
    block's momentum rows and generators.  The uploads land in the
    shard's momentum rows (Algorithm 1 line 11: the momentum *is* the
    upload), which the call returns.  Bitwise identical to the scalar
    per-worker protocol.
    """

    def __init__(self) -> None:
        self._gradients: np.ndarray | None = None
        # Row-sliced views of the scratch, cached per row count so repeated
        # calls hand ``Sequential.per_example_gradients`` the *same* array
        # object -- its gradient-buffer binding is identity-cached, so a
        # fresh slice every block would force a re-bind every block.
        self._views: dict[int, np.ndarray] = {}

    def _scratch(self, rows: int, dimension: int) -> np.ndarray:
        if (
            self._gradients is None
            or self._gradients.shape[0] < rows
            or self._gradients.shape[1] != dimension
        ):
            self._gradients = np.empty((rows, dimension), dtype=np.float64)
            self._views = {rows: self._gradients}
        view = self._views.get(rows)
        if view is None:
            view = self._gradients[:rows]
            self._views[rows] = view
        return view

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
        """Per block: stack per-example gradients, then finalise the DP uploads.

        Returns ``state.slot_momentum``, which holds the uploads.
        """
        batch = config.batch_size
        dimension = model.num_parameters
        state.ensure_shape(n_workers, batch, dimension)
        momentum = state.slot_momentum
        for start, stop in block_plan(n_workers, batch, dimension):
            rows = slice(start * batch, stop * batch)
            _, gradients = model.per_example_gradients(
                features[rows],
                labels[rows],
                out=self._scratch((stop - start) * batch, dimension),
            )
            block = BatchedDPState(slot_momentum=momentum[start:stop], batch_size=batch)
            local_update_batch(
                gradients.reshape(stop - start, batch, dimension),
                block, config, rngs[start:stop],
            )
        return momentum

    def release(self) -> None:
        """Drop the gradient workspace (the next round reallocates)."""
        self._gradients = None
        self._views = {}


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
    bounded-sum buffer -- no per-example gradient tensor exists, not even
    the materialized path's block-sized one.

    Parameters
    ----------
    fused:
        When the network's only parametrised layer is its *last* layer (the
        paper's linear models), the capture-mode backward pass computes an
        input gradient ``Delta @ W^T`` that nothing below ever consumes.
        With ``fused=True`` (the default) the engine captures the ghost
        factors directly after the forward pass via
        :meth:`~repro.nn.layers.Linear.capture_terminal_grad_factors`,
        skipping that GEMM entirely.  The captured factors are bitwise the
        same arrays, so fused and unfused uploads are bit-identical; models
        with hidden parametrised layers silently fall back to the full
        capture-mode backward.
    """

    def __init__(self, fused: bool = True) -> None:
        self.fused = bool(fused)
        # Capacity buffer plus row-sliced views, so uneven shard sizes
        # (e.g. 8,8,8,6) reuse one allocation instead of thrashing.
        self._bounded: np.ndarray | None = None
        self._bounded_views: dict[int, np.ndarray] = {}

    @staticmethod
    def _fused_eligible(model: Sequential) -> bool:
        """Terminal-layer capture applies iff the last layer holds all
        parameters, supports factor capture, and implements the
        terminal-capture hook.  Layers opting out of factor capture
        (``supports_grad_factors = False``) must keep flowing through
        ``per_example_grad_factors`` so its unsupported-layer error fires.
        """
        last = model.layers[-1]
        if (
            not last.parameters
            or not getattr(last, "supports_grad_factors", False)
            or not hasattr(last, "capture_terminal_grad_factors")
        ):
            return False
        return not any(layer.parameters for layer in model.layers[:-1])

    def _capture_factors(
        self, model: Sequential, features: np.ndarray, labels: np.ndarray
    ) -> list[tuple]:
        if self.fused and self._fused_eligible(model):
            last = model.layers[-1]
            logits = model.forward(features)
            _, grad_logits = softmax_cross_entropy(logits, labels)
            last.capture_terminal_grad_factors(grad_logits)
            return [(last, *last.grad_factors)]
        _, factors = model.per_example_grad_factors(features, labels)
        return factors

    def _bounded_scratch(self, n_workers: int, dimension: int) -> np.ndarray:
        if (
            self._bounded is None
            or self._bounded.shape[0] < n_workers
            or self._bounded.shape[1] != dimension
        ):
            self._bounded = np.empty((n_workers, dimension), dtype=np.float64)
            self._bounded_views = {n_workers: self._bounded}
        view = self._bounded_views.get(n_workers)
        if view is None:
            view = self._bounded[:n_workers]
            self._bounded_views[n_workers] = view
        return view

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

        factors = self._capture_factors(model, features, labels)
        layout = model.parameter_layout()

        # Per-layer factors reshaped worker-major: X_l (n, b, in), D_l (n, b, out).
        shaped: list[tuple[np.ndarray, np.ndarray]] = []
        for (layer, _), (_, inputs, deltas) in zip(layout, factors):
            if len(layer.parameters) != 2 or layer.parameters[0].shape != (
                inputs.shape[1],
                deltas.shape[1],
            ):
                raise RuntimeError(
                    f"{type(layer).__name__} does not follow the linear "
                    "(weight, bias) factor convention the ghost-norm engine "
                    "requires; use the materialized engine for this model"
                )
            shaped.append(
                (
                    inputs.reshape(n_workers, batch, -1),
                    deltas.reshape(n_workers, batch, -1),
                )
            )

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
            momentum_sq = np.einsum("nd,nd->n", momentum, momentum)
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
        bounded = self._bounded_scratch(n_workers, dimension)
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

    def release(self) -> None:
        """Drop the bounded-gradient workspace (the next round reallocates)."""
        self._bounded = None
        self._bounded_views = {}


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


def build_engine(
    engine: str | ClientEngine | EngineConfig | None, **kwargs
) -> ClientEngine:
    """Resolve an engine specification to a :class:`ClientEngine` instance.

    ``engine`` may be a registered name, an :class:`~repro.core.config
    .EngineConfig` (its ``options`` merge under ``kwargs``), an existing
    instance (returned as-is; ``kwargs`` must then be empty) or ``None``
    for the default materialized engine.
    """
    if engine is None:
        engine = "materialized"
    if isinstance(engine, EngineConfig):
        merged = {**engine.options, **kwargs}
        return ENGINES.build(engine.name, **merged)
    if isinstance(engine, ClientEngine):
        if kwargs:
            raise TypeError(
                "cannot pass engine kwargs together with an engine instance"
            )
        return engine
    return ENGINES.build(engine, **kwargs)
