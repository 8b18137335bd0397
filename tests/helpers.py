"""Shared test helpers for building aggregation / attack contexts."""

from __future__ import annotations

import numpy as np

from repro.byzantine.base import AttackContext
from repro.data.dataset import Dataset
from repro.data.synthetic import make_classification
from repro.defenses.base import AggregationContext
from repro.nn.layers import Linear
from repro.nn.network import Sequential


def make_model_and_data(
    seed: int = 0,
    n_features: int = 8,
    n_classes: int = 3,
    n_samples: int = 90,
    hidden: int | None = None,
) -> tuple[Sequential, Dataset]:
    """A linear (or one-hidden-layer) model plus a matching easy dataset.

    Pass ``hidden`` to get a larger parameter vector; tests exercising the
    first-stage statistical filter need a dimension of a few hundred so that
    DP noise dominates the signal, mirroring the paper's setting.
    """
    rng = np.random.default_rng(seed)
    dataset = make_classification(
        n_samples=n_samples,
        n_features=n_features,
        n_classes=n_classes,
        class_separation=4.0,
        within_class_std=0.6,
        nonlinear=False,
        rng=rng,
        name="helper",
    )
    if hidden is None:
        model = Sequential([Linear(n_features, n_classes, rng)])
    else:
        from repro.nn.layers import ELU

        model = Sequential(
            [Linear(n_features, hidden, rng), ELU(), Linear(hidden, n_classes, rng)]
        )
    return model, dataset


def make_aggregation_context(
    seed: int = 0,
    upload_noise_std: float = 0.0,
    with_auxiliary: bool = True,
) -> AggregationContext:
    """An AggregationContext backed by a small linear model and dataset."""
    model, dataset = make_model_and_data(seed=seed)
    auxiliary = dataset.subset(np.arange(12)) if with_auxiliary else None
    return AggregationContext(
        model=model,
        auxiliary=auxiliary,
        upload_noise_std=upload_noise_std,
        rng=np.random.default_rng(seed + 1),
    )


def make_attack_context(
    honest_uploads: np.ndarray,
    n_byzantine: int,
    upload_noise_std: float = 0.0,
    seed: int = 0,
) -> AttackContext:
    """An AttackContext around the given honest uploads."""
    return AttackContext(
        honest_uploads=np.asarray(honest_uploads, dtype=np.float64),
        n_byzantine=n_byzantine,
        upload_noise_std=upload_noise_std,
        rng=np.random.default_rng(seed),
    )
