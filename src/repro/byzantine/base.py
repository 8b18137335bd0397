"""Attack interface and the information available to an omniscient attacker.

Attacks speak the same array-first protocol as the server: the omniscient
view ``AttackContext.honest_uploads`` is the stacked ``(n_honest, d)``
matrix of the round, and :meth:`Attack.craft` returns the Byzantine uploads
as an ``(n_byzantine, d)`` matrix that the federated loop writes below the
honest rows of the round matrix without ever exploding either side into
per-worker lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["AttackContext", "Attack"]


@dataclass
class AttackContext:
    """Everything the (omniscient) Byzantine attacker can see in one round.

    Training progress reaches :meth:`Attack.is_active` as its arguments.

    Attributes
    ----------
    honest_uploads:
        Array of shape ``(n_honest, d)`` -- the uploads of all honest
        workers this round (the attacker is omniscient).
    n_byzantine:
        Number of Byzantine uploads to produce.
    upload_noise_std:
        Per-coordinate standard deviation of the DP noise in an honest
        upload; the attacker knows the public protocol parameters.
    rng:
        Generator for the attacker's own randomness.
    """

    honest_uploads: np.ndarray
    n_byzantine: int
    upload_noise_std: float
    rng: np.random.Generator

    @property
    def dimension(self) -> int:
        """Model size ``d``."""
        return int(self.honest_uploads.shape[1])

    @property
    def n_honest(self) -> int:
        """Number of honest workers this round."""
        return int(self.honest_uploads.shape[0])


class Attack:
    """Base class for Byzantine attacks.

    Two families are supported:

    - *data poisoning* attacks (``follows_protocol = True``): the Byzantine
      worker poisons its local dataset via :meth:`poison_dataset` and then
      runs the honest DP protocol on it (e.g. label flipping);
    - *upload crafting* attacks (``follows_protocol = False``): the attacker
      fabricates the Byzantine uploads directly via :meth:`craft`.

    :meth:`is_active` lets an attack stay dormant for part of training
    (used by :class:`~repro.byzantine.adaptive.AdaptiveAttack`).
    """

    #: True if Byzantine workers run the honest protocol on poisoned data.
    follows_protocol: bool = False

    def poison_dataset(self, dataset: Dataset) -> Dataset:
        """Return the poisoned local dataset (default: unchanged)."""
        return dataset

    def craft(self, context: AttackContext) -> np.ndarray:
        """Fabricate the Byzantine uploads, shape ``(n_byzantine, d)``.

        The result may be a read-only view, such as one crafted row
        broadcast over the Byzantine rows; the simulation copies it into
        the round matrix once.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not craft uploads directly"
        )

    def is_active(self, round_index: int, total_rounds: int) -> bool:
        """Whether the attacker misbehaves in this round (default: always)."""
        return True

    @property
    def name(self) -> str:
        """Human-readable attack name."""
        return type(self).__name__
