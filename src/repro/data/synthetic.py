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

from repro.data.dataset import BLOCK_BYTES, Dataset

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

    The features are one ``(n_samples, n_features)`` buffer that every step
    updates in place, one row block of at most
    :data:`~repro.data.dataset.BLOCK_BYTES` at a time, so generation peaks
    near the size of its output.  At 64 and 96 features (the registered
    datasets) the result has the same bits as the plain whole-matrix
    expressions.  At some other widths (17-20, 25-28 and 33-36 features,
    among others) OpenBLAS 0.3.31 on an AVX-512 host multiplies a block with
    another kernel than the whole matrix, and a dataset of more than one
    block differs from the whole-matrix product by ~1e-15.
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
    # The features are one (n, d) buffer that every step updates in place,
    # one row block at a time, so no other array of that size ever exists.
    # Each step applies the same IEEE operation to the same operands as the
    # plain expression would (tests/data keeps those as the oracle).
    features = rng.normal(0.0, within_class_std, size=(n_samples, n_features))
    blocks = _row_blocks(n_samples, n_features)
    for rows in blocks:
        features[rows] += means[labels[rows]]

    if nonlinear:
        # A fixed random rotation followed by a soft nonlinearity mixes the
        # coordinates so a purely linear decision boundary is suboptimal.
        rotation = rng.normal(size=(n_features, n_features)) / np.sqrt(n_features)
        for rows in blocks:
            block = features[rows]
            warped = block @ rotation
            np.tanh(warped, out=warped)
            block *= 0.1
            warped += block
            block[...] = warped

    # Standardise features (zero mean, unit variance per coordinate), as one
    # would after normalising image pixel intensities.  NumPy sums a
    # C-contiguous matrix over axis 0 as a left fold over its rows, so
    # folding the blocks' squared deviations in row order (each block's first
    # row absorbs the running total; adding the first block's 0.0 changes no
    # bit, as x * x is never -0.0) gives ``features.std(axis=0)``'s bits.
    mean = features.mean(axis=0)
    total = np.zeros(n_features)
    for rows in blocks:
        squares = features[rows] - mean
        squares *= squares
        squares[0] += total
        total = np.add.reduce(squares, axis=0)
    std = np.sqrt(total / n_samples)
    features -= mean
    features /= std + 1e-12
    return Dataset(features=features, labels=labels, num_classes=n_classes, name=name)


def _row_blocks(n_rows: int, n_features: int) -> list[slice]:
    """Row slices of at most :data:`BLOCK_BYTES` covering ``n_rows`` rows.

    No block has one row unless ``n_rows == 1``: a lone last row joins the
    block before it (one row past the limit).  NumPy hands a one-row
    product to BLAS's GEMV, whose result differs in the low bits from that
    row of the whole-matrix GEMM (OpenBLAS 0.3.31 at 64 and 96 features),
    while GEMM on a block of two or more rows reproduces the whole
    product's rows at those widths.
    """
    step = max(2, BLOCK_BYTES // (8 * max(1, n_features)))
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n_rows])]


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
