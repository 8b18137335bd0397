"""Registry of the synthetic stand-in datasets.

:data:`DATASETS` is a :class:`repro.registry.Registry` of dataset
*loaders*: callables ``loader(scale=..., seed=...) -> (train, test)``
returning two :class:`~repro.data.dataset.Dataset` splits.  The built-in
datasets are spec-driven -- each mirrors one of the paper's benchmark
datasets in class count, relative size and relative difficulty -- and are
registered through :func:`register_dataset_spec`, which also records the
spec and the dataset's default model in the entry metadata.  Third-party
datasets register a loader directly::

    from repro.data import DATASETS

    @DATASETS.register("my_data", summary="...", metadata={"default_model": "mlp_small"})
    def load_my_data(scale=1.0, seed=0):
        return train, test

and are then accepted by :class:`~repro.experiments.configs.ExperimentConfig`
and the CLI like any built-in (the experiment runner sizes the model from
the loaded train split, so no spec is required).

``scale`` lets experiments and benchmarks shrink every dataset
proportionally (e.g. ``scale=0.25``) so the full table/figure sweeps
complete quickly on CPU; the default ``scale=1.0`` sizes are already
modest compared to the real datasets (see "What this reproduction
substitutes" in README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.data.synthetic import make_classification
from repro.registry import Registry

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "available_datasets",
    "load_dataset",
    "register_dataset_spec",
]

#: Global registry of dataset loaders.
DATASETS = Registry("dataset")


@dataclass(frozen=True)
class DatasetSpec:
    """Generation parameters of a registered synthetic dataset."""

    name: str
    n_classes: int
    n_features: int
    train_size: int
    test_size: int
    class_separation: float
    within_class_std: float
    seed_offset: int


def register_dataset_spec(
    spec: DatasetSpec,
    *,
    summary: str = "",
    default_model: str = "mlp_small",
    replace: bool = False,
) -> DatasetSpec:
    """Register a synthetic dataset generated from ``spec``.

    The loader produced here is what :func:`load_dataset` invokes; the
    spec itself and ``default_model`` (consulted by
    :func:`repro.nn.models.model_for_dataset`) land in the entry metadata.
    """

    def loader(scale: float = 1.0, seed: int = 0) -> tuple[Dataset, Dataset]:
        return _load_from_spec(spec, scale=scale, seed=seed)

    DATASETS.register(
        spec.name,
        loader,
        summary=summary,
        metadata={"spec": spec, "default_model": default_model},
        replace=replace,
    )
    return spec


register_dataset_spec(
    # MNIST: large, easy.
    DatasetSpec(
        name="mnist_like",
        n_classes=10,
        n_features=64,
        train_size=6000,
        test_size=1000,
        class_separation=4.0,
        within_class_std=1.0,
        seed_offset=101,
    ),
    summary="mirrors MNIST: 10 classes, largest and easiest",
    default_model="mlp_medium",
)
register_dataset_spec(
    # Fashion-MNIST: large, noticeably harder than MNIST.
    DatasetSpec(
        name="fashion_like",
        n_classes=10,
        n_features=64,
        train_size=6000,
        test_size=1000,
        class_separation=2.6,
        within_class_std=1.1,
        seed_offset=202,
    ),
    summary="mirrors Fashion-MNIST: 10 classes, large, harder than MNIST",
    default_model="mlp_small",
)
register_dataset_spec(
    # USPS: smaller, medium difficulty.
    DatasetSpec(
        name="usps_like",
        n_classes=10,
        n_features=64,
        train_size=2400,
        test_size=600,
        class_separation=3.2,
        within_class_std=1.0,
        seed_offset=303,
    ),
    summary="mirrors USPS: 10 classes, smaller, medium difficulty",
    default_model="mlp_small",
)
register_dataset_spec(
    # Colorectal: smallest and hardest (8 classes, high within-class noise).
    DatasetSpec(
        name="colorectal_like",
        n_classes=8,
        n_features=96,
        train_size=1000,
        test_size=250,
        class_separation=2.2,
        within_class_std=1.3,
        seed_offset=404,
    ),
    summary="mirrors Colorectal: 8 classes, smallest and hardest",
    default_model="mlp_medium",
)


def available_datasets() -> list[str]:
    """Names accepted by :func:`load_dataset`."""
    return DATASETS.names()


def load_dataset(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Load the train and test splits of a registered dataset.

    Parameters
    ----------
    name:
        One of :func:`available_datasets`.
    scale:
        Multiplier on the train/test sizes.  Each size is floored at
        ``4 * n_classes`` examples, and the stratified split keeps at least
        2 test examples of every class.  Benchmarks use small scales.
    seed:
        Base seed; combined with the spec's ``seed_offset`` so different
        datasets never share randomness for the same seed.

    Returns
    -------
    (train, test):
        Two :class:`~repro.data.dataset.Dataset` objects drawn from the same
        generative distribution.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    return DATASETS.build(name, scale=scale, seed=seed)


def _load_from_spec(
    spec: DatasetSpec, scale: float = 1.0, seed: int = 0
) -> tuple[Dataset, Dataset]:
    """Generate the train/test splits of a synthetic spec-driven dataset.

    Both splits are views of the one generated buffer, whose rows
    :meth:`~repro.data.dataset.Dataset.regroup` puts in split order in
    place (train first, then test).
    """
    train_size = max(4 * spec.n_classes, int(round(spec.train_size * scale)))
    test_size = max(4 * spec.n_classes, int(round(spec.test_size * scale)))

    rng = np.random.default_rng(seed * 100_003 + spec.seed_offset)
    combined = make_classification(
        n_samples=train_size + test_size,
        n_features=spec.n_features,
        n_classes=spec.n_classes,
        class_separation=spec.class_separation,
        within_class_std=spec.within_class_std,
        nonlinear=True,
        rng=rng,
        name=spec.name,
    )
    # Stratified train/test split: every class keeps its share of the test
    # split, so even heavily scaled-down datasets retain at least two test
    # examples per class (the server samples its auxiliary data from there).
    test_fraction = test_size / (train_size + test_size)
    train_indices: list[np.ndarray] = []
    test_indices: list[np.ndarray] = []
    for label in range(spec.n_classes):
        members = np.flatnonzero(combined.labels == label)
        rng.shuffle(members)
        n_test = max(2, int(round(test_fraction * members.size)))
        n_test = min(n_test, members.size - 1)
        test_indices.append(members[:n_test])
        train_indices.append(members[n_test:])
    train_order = rng.permutation(np.concatenate(train_indices))
    test_order = rng.permutation(np.concatenate(test_indices))
    train, test = combined.regroup([train_order, test_order])
    return train, test
