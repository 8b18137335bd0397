"""Client-side DP protocol (Algorithm 1, lines 4-12).

Each iteration an honest worker:

1. samples a mini-batch of size ``b_c``;
2. computes per-example gradients ``g_j``;
3. updates a per-slot momentum list ``phi[j] = (1 - beta) g_j + beta phi[j]``;
4. normalises every momentum slot to unit l2-norm (this paper) or clips it
   (vanilla DP-SGD baseline);
5. averages the slots and adds Gaussian noise ``N(0, sigma^2 I)``;
6. uploads the result and overwrites every momentum slot with the upload.

The upload of an honest worker therefore has the form ``g = g_tilde + z``
with ``||g_tilde|| <= 1`` and ``z ~ N(0, sigma^2 I)`` -- the statistical
structure both aggregation stages rely on.

Two implementations of the same protocol live here:

- :func:`local_update` runs one worker's iteration (the scalar reference
  implementation, also used by tests as the ground truth);
- :func:`local_update_batch` runs *all* protocol-following workers of a
  round at once on stacked ``(n_workers, b_c, d)`` per-example gradients --
  momentum, normalise/clip, per-worker noise draws and the slot overwrite
  are vectorized across workers, in place in the (caller-reused) gradient
  buffer, with the momentum state stored rank-1 per worker
  (:class:`BatchedDPState`).  The federated loop feeds it via the
  materialized client engine (:mod:`repro.federated.engines`), which
  expands the stacked gradients one cache-sized group of workers at a
  time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DPConfig
from repro.data.dataset import Dataset
from repro.nn.network import Sequential
from repro.privacy.mechanisms import (
    clip_gradients,
    gaussian_noise,
    gaussian_noise_batch,
    normalize_gradients,
)

__all__ = [
    "BatchedDPState",
    "LocalDPState",
    "bounding_factors",
    "finalize_uploads",
    "local_update",
    "local_update_batch",
    "noise_to_signal_ratio",
    "upload_noise_std",
]

#: Norm floor protecting against division by zero, matching
#: :mod:`repro.privacy.mechanisms`.
_NORM_FLOOR = 1e-12


def bounding_factors(norms: np.ndarray, config: DPConfig) -> np.ndarray:
    """Per-slot multipliers of the sensitivity-bounding step, given norms.

    This is the *norms-provided* variant of normalise/clip: engines that
    obtain slot norms without materialising the slot vectors (the ghost-norm
    Gram-matrix path) turn them into the exact multipliers
    :func:`repro.privacy.mechanisms.normalize_gradients` /
    :func:`~repro.privacy.mechanisms.clip_gradients` would have applied --
    including the zero-norm floor semantics (normalise maps a vanishing slot
    to zero; clip leaves it untouched).

    Parameters
    ----------
    norms:
        l2 norms of the momentum slots, any shape.
    config:
        The DP settings selecting ``"normalize"`` or ``"clip"`` bounding.
    """
    norms = np.asarray(norms, dtype=np.float64)
    if config.bounding == "normalize":
        return np.where(norms > _NORM_FLOOR, 1.0 / np.maximum(norms, _NORM_FLOOR), 0.0)
    return np.minimum(1.0, config.clip_norm / np.maximum(norms, _NORM_FLOOR))


def finalize_uploads(
    slot_sums: np.ndarray,
    state: BatchedDPState,
    config: DPConfig,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Noise, average and momentum overwrite shared by every client engine.

    ``slot_sums`` holds each worker's summed bounded momentum slots, shape
    ``(n_workers, d)``; the array is updated **in place** (Algorithm 1 line
    10: add per-worker Gaussian noise, divide by the batch size) and every
    momentum slot is overwritten with the upload (line 11, stored rank-1 in
    ``state``).  Worker ``i``'s noise comes from ``rngs[i]`` with exactly
    the same draw the scalar protocol makes, so engines that share sampling
    and noise streams differ only in gradient summation order.
    """
    n_workers, dimension = slot_sums.shape
    if len(rngs) != n_workers:
        raise ValueError(f"expected {n_workers} generators, got {len(rngs)}")
    noise = gaussian_noise_batch(dimension, config.sigma, rngs)
    np.add(slot_sums, noise, out=slot_sums)
    np.divide(slot_sums, config.batch_size, out=slot_sums)
    np.copyto(state.slot_momentum, slot_sums)
    return slot_sums


@dataclass
class LocalDPState:
    """Per-worker state carried across iterations: the momentum list ``phi``.

    ``phi`` has shape ``(batch_size, d)``; slot ``j`` holds the momentum of
    the ``j``-th position in the local mini-batch (Algorithm 1, line 1).
    """

    momentum: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), dtype=np.float64)
    )

    def ensure_shape(self, batch_size: int, dimension: int) -> None:
        """(Re)initialise the momentum list if the shape does not match."""
        if self.momentum.shape != (batch_size, dimension):
            self.momentum = np.zeros((batch_size, dimension), dtype=np.float64)


def local_update(
    model: Sequential,
    dataset: Dataset,
    state: LocalDPState,
    config: DPConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One local iteration of Algorithm 1; returns the worker's upload.

    The caller is responsible for having loaded the current global
    parameters into ``model`` (model broadcasting, line 3).
    """
    dimension = model.num_parameters
    state.ensure_shape(config.batch_size, dimension)

    batch = dataset.sample_batch(config.batch_size, rng)
    _, per_example = model.per_example_gradients(batch.features, batch.labels)

    # Momentum update per slot (line 8).
    state.momentum = (1.0 - config.momentum) * per_example + config.momentum * state.momentum

    # Bound sensitivity: normalise (paper) or clip (vanilla DP-SGD baseline).
    if config.bounding == "normalize":
        bounded = normalize_gradients(state.momentum)
    else:
        bounded = clip_gradients(state.momentum, config.clip_norm)

    # Average the slots and add Gaussian noise (line 10).
    noise = gaussian_noise(dimension, config.sigma, rng)
    upload = (bounded.sum(axis=0) + noise) / config.batch_size

    # Line 11: every momentum slot is overwritten with the upload.
    state.momentum = np.tile(upload, (config.batch_size, 1))
    return upload


@dataclass
class BatchedDPState:
    """Momentum lists of a whole worker pool, stored rank-1 per worker.

    Algorithm 1 line 11 overwrites *every* momentum slot of a worker with
    that worker's upload, so between rounds the conceptual
    ``(n_workers, b_c, d)`` momentum is constant along the slot axis.  The
    state therefore only stores ``slot_momentum`` of shape
    ``(n_workers, d)`` -- the value shared by all ``b_c`` slots of each
    worker -- and :func:`local_update_batch` broadcasts it instead of
    materialising (or ``np.tile``-ing) the full stacked array.
    """

    slot_momentum: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0), dtype=np.float64)
    )
    batch_size: int = 0

    def ensure_shape(self, n_workers: int, batch_size: int, dimension: int) -> None:
        """(Re)initialise the momentum if the protocol shape does not match."""
        if (
            self.slot_momentum.shape != (n_workers, dimension)
            or self.batch_size != batch_size
        ):
            self.slot_momentum = np.zeros((n_workers, dimension), dtype=np.float64)
        self.batch_size = batch_size

    def momentum_of(self, index: int) -> np.ndarray:
        """Worker ``index``'s momentum list as a read-only ``(b_c, d)`` view."""
        row = self.slot_momentum[index]
        return np.broadcast_to(row, (self.batch_size, row.shape[0]))


def local_update_batch(
    per_example: np.ndarray,
    state: BatchedDPState,
    config: DPConfig,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """One protocol iteration for ``n_workers`` workers at once.

    Parameters
    ----------
    per_example:
        Stacked per-example gradients of shape ``(n_workers, b_c, d)``;
        slot ``[i, j]`` is worker ``i``'s gradient for mini-batch position
        ``j``.  The array is **consumed as scratch** (its contents are
        unspecified afterwards), which lets the caller reuse one gradient
        buffer across rounds without this function allocating a copy.
    state:
        The pool's per-worker momentum (rank-1 along the slot axis, see
        :class:`BatchedDPState`), updated in place.
    config:
        Shared client-side DP settings.
    rngs:
        One generator per worker, in worker order.  Worker ``i``'s noise is
        drawn from ``rngs[i]`` with exactly the same call the scalar
        :func:`local_update` would make, so per-worker noise streams match
        the sequential protocol bit for bit.

    Returns
    -------
    Uploads of shape ``(n_workers, d)``; row ``i`` equals what
    :func:`local_update` would have returned for worker ``i``.
    """
    per_example = np.asarray(per_example, dtype=np.float64)
    if per_example.ndim != 3:
        raise ValueError(
            f"per_example must have shape (n_workers, batch, d), got {per_example.shape}"
        )
    n_workers, batch_size, dimension = per_example.shape
    if batch_size != config.batch_size:
        raise ValueError(
            f"per_example batch axis {batch_size} != config.batch_size {config.batch_size}"
        )
    if len(rngs) != n_workers:
        raise ValueError(f"expected {n_workers} generators, got {len(rngs)}")
    state.ensure_shape(n_workers, batch_size, dimension)

    # Momentum update per slot (line 8), in the gradient buffer itself:
    # phi[i, j] = (1 - beta) g[i, j] + beta phi[i].  Every slot of worker i
    # shares the same previous momentum (line 11 overwrote them all with the
    # last upload), so beta * phi is an (n_workers, d) product broadcast
    # over the slot axis -- bitwise the same sum as the scalar path's
    # ``(1 - beta) * g + beta * phi`` with its slot-wise identical phi.
    np.multiply(per_example, 1.0 - config.momentum, out=per_example)
    per_example += (config.momentum * state.slot_momentum)[:, np.newaxis, :]

    # Bound sensitivity row-wise across all n_workers * b_c slots at once.
    if config.bounding == "normalize":
        normalize_gradients(per_example, out=per_example)
    else:
        clip_gradients(per_example, config.clip_norm, out=per_example)

    # Average the slots, add per-worker Gaussian noise (line 10) and
    # overwrite the momentum (line 11, stored rank-1) -- the finalisation
    # shared with the ghost-norm engine, bitwise the same ops as before.
    return finalize_uploads(per_example.sum(axis=1), state, config, rngs)


def noise_to_signal_ratio(config: DPConfig, dimension: int) -> float:
    """Expected ratio ``||z|| / ||g_tilde||`` for an honest upload.

    ``||z|| ≈ sigma * sqrt(d)`` while ``g_tilde`` is a sum of ``b_c``
    unit-norm vectors, so ``||g_tilde|| <= b_c``.  The first-stage
    aggregation assumes this ratio is much larger than 1; the paper controls
    it by using a small batch size or a bigger model (Section 4.3,
    "Ensuring ||z|| >> ||g_tilde||").
    """
    if dimension <= 0:
        raise ValueError("dimension must be positive")
    if config.sigma == 0:
        return 0.0
    return config.sigma * np.sqrt(dimension) / config.batch_size


def upload_noise_std(config: DPConfig) -> float:
    """Per-coordinate standard deviation of the DP noise in an *upload*.

    Algorithm 1 adds ``N(0, sigma^2 I)`` to the slot sum and then divides by
    the batch size, so each coordinate of the uploaded vector carries noise
    with standard deviation ``sigma / b_c``.  This is the sigma the server's
    first-stage tests (norm test and KS test) must be run against.
    """
    return config.sigma / config.batch_size
