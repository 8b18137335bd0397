"""Synthetic classification data.

The generators produce Gaussian-mixture classification problems that stand
in for the image datasets of the paper (which cannot be downloaded in this
offline environment).  Each class is an anisotropic Gaussian blob around a
random mean on a sphere; ``class_separation`` controls difficulty, and an
optional non-linear feature warp makes the task non-linearly separable so
that an MLP meaningfully outperforms a linear model.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["make_classification", "make_mismatched_space"]


def make_classification(
    n_samples: int,
    n_features: int,
    n_classes: int,
    class_separation: float = 3.0,
    within_class_std: float = 1.0,
    nonlinear: bool = True,
    rng: np.random.Generator | int | None = None,
    name: str = "synthetic",
) -> Dataset:
    """Generate a Gaussian-mixture classification dataset.

    Parameters
    ----------
    n_samples:
        Total number of examples; classes are balanced up to rounding.
    n_features:
        Feature dimensionality.
    n_classes:
        Number of classes.
    class_separation:
        Distance scale between class means; larger is easier.
    within_class_std:
        Standard deviation of the within-class noise.
    nonlinear:
        If True, apply a fixed smooth non-linear warp so the classes are not
        linearly separable in the raw features.
    rng:
        Generator or seed.
    name:
        Name recorded on the returned :class:`~repro.data.dataset.Dataset`.
    """
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    # Class means on a sphere of radius `class_separation`.
    raw_means = rng.normal(size=(n_classes, n_features))
    raw_means /= np.linalg.norm(raw_means, axis=1, keepdims=True)
    means = raw_means * class_separation

    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)
    # The features are updated in place wherever an operation allows it, so
    # at most one other (n, d) array is alive at a time.  Each step applies
    # the same IEEE operation to the same operands as the plain expression
    # would (tests/data keeps those expressions as the oracle): same bits.
    features = rng.normal(0.0, within_class_std, size=(n_samples, n_features))
    features += means[labels]

    if nonlinear:
        # A fixed random rotation followed by a soft nonlinearity mixes the
        # coordinates so a purely linear decision boundary is suboptimal.
        rotation = rng.normal(size=(n_features, n_features)) / np.sqrt(n_features)
        warped = features @ rotation
        np.tanh(warped, out=warped)
        features *= 0.1
        warped += features
        features = warped

    # Standardise features (zero mean, unit variance per coordinate), as one
    # would after normalising image pixel intensities.
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    features -= mean
    features /= std + 1e-12
    return Dataset(features=features, labels=labels, num_classes=n_classes, name=name)


def make_mismatched_space(
    reference: Dataset,
    n_samples: int,
    rng: np.random.Generator | int | None = None,
    name: str = "mismatched",
) -> Dataset:
    """Data from a *different* data space with the same shape as ``reference``.

    Used to reproduce the Table 17 experiment where the server's auxiliary
    data is sampled from KMNIST instead of the training distribution: the
    returned features have the same dimensionality and label range but are
    statistically unrelated to the reference dataset, so the server's
    gradient estimate carries no information about the true gradient.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    features = rng.normal(0.0, 1.0, size=(n_samples, reference.dim))
    labels = rng.integers(0, reference.num_classes, size=n_samples)
    return Dataset(
        features=features,
        labels=labels,
        num_classes=reference.num_classes,
        name=name,
    )
