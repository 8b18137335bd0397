""""A little is enough" attack (Baruch et al., 2019).

The omniscient attacker estimates the coordinate-wise mean ``mu`` and
standard deviation ``s`` of the benign uploads and uploads ``mu - z * s``,
with ``z`` chosen just small enough that the malicious uploads stay within
the benign spread and evade distance/median-based defenses while still
biasing the aggregate.
"""

from __future__ import annotations

import numpy as np

from repro.byzantine.base import Attack, AttackContext
from repro.byzantine.registry import ATTACKS
from repro.stats.distributions import normal_ppf

__all__ = ["ALittleAttack"]


@ATTACKS.register(
    "alittle",
    summary='"A little is enough": shift the benign mean by z stds (Baruch et al.)',
)
class ALittleAttack(Attack):
    """Shift the benign coordinate-wise mean by ``z`` standard deviations.

    Parameters
    ----------
    z:
        Shift magnitude; ``None`` uses the original paper's rule based on
        the number of honest and Byzantine workers.
    """

    def __init__(self, z: float | None = None) -> None:
        self.z = z

    def _default_z(self, n_total: int, n_byzantine: int) -> float:
        # s = floor(n/2 + 1) - m supporters needed; pick z at the quantile
        # (n - m - s) / (n - m) of the standard normal (Baruch et al.).
        supporters = int(np.floor(n_total / 2.0 + 1)) - n_byzantine
        benign = n_total - n_byzantine
        if benign <= 0:
            return 1.0
        probability = (benign - supporters) / benign
        probability = min(max(probability, 1e-3), 1.0 - 1e-3)
        return abs(normal_ppf(probability))

    def craft(self, context: AttackContext) -> np.ndarray:
        if context.n_honest == 0:
            return np.zeros((context.n_byzantine, context.dimension))
        mean = context.honest_uploads.mean(axis=0)
        std = _column_std(context.honest_uploads, mean)
        n_total = context.n_honest + context.n_byzantine
        z = self.z if self.z is not None else self._default_z(n_total, context.n_byzantine)
        single = mean - z * std
        return np.broadcast_to(single, (context.n_byzantine, context.dimension))


def _column_std(rows: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``rows.std(axis=0)`` given ``mean = rows.mean(axis=0)``, in ``(d,)`` memory.

    The squared deviations are added into one ``(d,)`` vector row by row,
    in order, where ``np.std`` builds them as an ``(n, d)`` temporary.
    NumPy's axis-0 sum of a C-contiguous matrix adds its rows the same
    way, so for ``d >= 2`` the result equals ``np.std``'s bit for bit
    (NumPy sums a single column pairwise).
    """
    total = np.zeros_like(mean)
    deviation = np.empty_like(mean)
    for row in rows:
        np.subtract(row, mean, out=deviation)
        np.multiply(deviation, deviation, out=deviation)
        total += deviation
    total /= len(rows)
    return np.sqrt(total, out=total)
