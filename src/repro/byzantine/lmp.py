"""Optimized Local Model Poisoning attack (Fang et al., 2020), instantiated
against the paper's protocol (Section 4.6, Equations 8-10).

The omniscient attacker sets every Byzantine upload to

    g_M = -(1 + lambda) / M_n * sum(benign uploads)

with ``lambda = M_n / sqrt(B_m) - 1``, which (a) makes the aggregate of all
uploads point opposite to the benign aggregate and (b) keeps each Byzantine
upload's norm consistent with the DP-noise statistics so it can pass the
first-stage aggregation.  The construction requires ``M_n > sqrt(B_m)``;
below that threshold the attacker uses the largest feasible non-negative
``lambda`` (i.e. a plain sign-inverted copy of the benign mean), mirroring
the paper's remark that the strong attack only exists with enough Byzantine
workers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.byzantine.base import Attack, AttackContext
from repro.byzantine.registry import ATTACKS

__all__ = ["LocalModelPoisoningAttack"]


@ATTACKS.register(
    "lmp",
    summary="Optimized Local Model Poisoning: invert the benign aggregate (Eq. 10)",
)
class LocalModelPoisoningAttack(Attack):
    """Directional inversion of the benign aggregate (Equation 10).

    Parameters
    ----------
    lambda_override:
        Fix ``lambda`` instead of using the paper's ``M_n / sqrt(B_m) - 1``.
    """

    def __init__(self, lambda_override: float | None = None) -> None:
        if lambda_override is not None and lambda_override < 0:
            raise ValueError("lambda_override must be non-negative")
        self.lambda_override = lambda_override

    def effective_lambda(self, n_byzantine: int, n_honest: int) -> float:
        """The scaling factor lambda used in Equation 10."""
        if self.lambda_override is not None:
            return self.lambda_override
        if n_honest <= 0:
            return 0.0
        return max(0.0, n_byzantine / math.sqrt(n_honest) - 1.0)

    def craft(self, context: AttackContext) -> np.ndarray:
        if context.n_honest == 0:
            # No benign uploads to invert; fall back to zero uploads.
            return np.zeros((context.n_byzantine, context.dimension))
        benign_sum = context.honest_uploads.sum(axis=0)
        lam = self.effective_lambda(context.n_byzantine, context.n_honest)
        single = -(1.0 + lam) / context.n_byzantine * benign_sum
        return np.broadcast_to(single, (context.n_byzantine, context.dimension))
