"""Inner-product manipulation attack ("Fall of empires", Xie et al., 2020).

The attacker uploads a negatively scaled copy of the benign mean so that
the aggregate's inner product with the true gradient becomes negative,
reversing the descent direction while keeping a plausible magnitude.
"""

from __future__ import annotations

import numpy as np

from repro.byzantine.base import Attack, AttackContext
from repro.byzantine.registry import ATTACKS

__all__ = ["InnerProductAttack"]


@ATTACKS.register(
    "inner",
    summary='inner-product manipulation / "Fall of empires" (Xie et al.)',
)
class InnerProductAttack(Attack):
    """Upload ``-epsilon_scale * mean(benign uploads)``.

    Parameters
    ----------
    epsilon_scale:
        Magnitude of the negative scaling (the attack paper's epsilon).
    """

    def __init__(self, epsilon_scale: float = 1.0) -> None:
        if epsilon_scale <= 0:
            raise ValueError("epsilon_scale must be positive")
        self.epsilon_scale = epsilon_scale

    def craft(self, context: AttackContext) -> np.ndarray:
        if context.n_honest == 0:
            return np.zeros((context.n_byzantine, context.dimension))
        mean = context.honest_uploads.mean(axis=0)
        single = -self.epsilon_scale * mean
        return np.broadcast_to(single, (context.n_byzantine, context.dimension))
