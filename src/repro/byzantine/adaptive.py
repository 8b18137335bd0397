"""Adaptive attack: behave honestly, then turn Byzantine (Section 4.6, Claim 7).

The attacker copies benign uploads for the first ``ttbb`` fraction of
training ("Time To Be Byzantine") and afterwards behaves like any wrapped
attack (Gaussian, Label-flipping or Optimized Local Model Poisoning in the
paper's Tables 5 and 33-38).
"""

from __future__ import annotations

import numpy as np

from repro.byzantine.base import Attack, AttackContext
from repro.data.dataset import Dataset

__all__ = ["AdaptiveAttack"]


# Registered by convention, not by name: build_attack constructs this
# wrapper for every "adaptive_<name>" over the ATTACKS registry.
class AdaptiveAttack(Attack):  # repro-lint: disable=REP004 -- built via the adaptive_<name> convention
    """Wrap another attack and delay its activation.

    Parameters
    ----------
    inner:
        The attack to launch after activation.
    ttbb:
        Fraction of total rounds during which the attacker mimics honest
        workers (0 = attack from the start, 0.8 = attack only in the last
        20% of training).
    """

    def __init__(self, inner: Attack, ttbb: float) -> None:
        if not 0.0 <= ttbb <= 1.0:
            raise ValueError("ttbb must be in [0, 1]")
        self.inner = inner
        self.ttbb = float(ttbb)

    @property
    def follows_protocol(self) -> bool:  # type: ignore[override]
        return self.inner.follows_protocol

    def poison_dataset(self, dataset: Dataset) -> Dataset:
        return self.inner.poison_dataset(dataset)

    def craft(self, context: AttackContext) -> np.ndarray:
        return self.inner.craft(context)

    def is_active(self, round_index: int, total_rounds: int) -> bool:
        if total_rounds <= 0:
            return True
        return round_index >= self.ttbb * total_rounds

    @property
    def name(self) -> str:
        return f"Adaptive({self.inner.name}, ttbb={self.ttbb})"
