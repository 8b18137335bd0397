"""Model registry.

The paper trains a small CNN for MNIST/Colorectal and a two-layer MLP
(784-32-10, ELU) for Fashion/USPS with model sizes d in the 21k-34k range.
In this CPU-only reproduction we use MLPs throughout (see "What this
reproduction substitutes" in README.md):
per-example gradients through dense layers are cheap batched einsums, the
protocol only consumes flat gradient vectors, and the first-stage
aggregation's requirement sigma^2 * d / b_c^2 >> 1 already holds for
d of a few thousand with the paper's batch size b_c = 16.

:data:`MODELS` is a :class:`repro.registry.Registry` of model builders
``builder(rng, input_dim, num_classes) -> Sequential``; third-party
architectures register with ``@MODELS.register("name")`` and are then
accepted by ``ExperimentConfig(model="name")`` and the CLI.  The default
model of each dataset comes from the dataset registry's ``default_model``
metadata (see :func:`model_for_dataset`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.layers import ELU, Linear, ReLU, Tanh
from repro.nn.network import Sequential
from repro.registry import Registry

__all__ = ["MODELS", "build_model", "available_models", "model_for_dataset"]

#: Global registry of model builders.
MODELS = Registry("model")


def _mlp(
    rng: np.random.Generator,
    input_dim: int,
    num_classes: int,
    hidden: tuple[int, ...],
    activation: str = "elu",
) -> Sequential:
    activations: dict[str, Callable[[], object]] = {
        "elu": ELU,
        "relu": ReLU,
        "tanh": Tanh,
    }
    if activation not in activations:
        raise ValueError(f"unknown activation {activation!r}")
    layers: list = []
    previous = input_dim
    for width in hidden:
        layers.append(Linear(previous, width, rng))
        layers.append(activations[activation]())
        previous = width
    layers.append(Linear(previous, num_classes, rng))
    return Sequential(layers)


@MODELS.register("mlp_small", summary="MLP with one hidden layer of 32, ELU")
def _mlp_small(
    rng: np.random.Generator, input_dim: int, num_classes: int
) -> Sequential:
    return _mlp(rng, input_dim, num_classes, hidden=(32,))


@MODELS.register("mlp_medium", summary="MLP with hidden layers 64-32, ELU")
def _mlp_medium(
    rng: np.random.Generator, input_dim: int, num_classes: int
) -> Sequential:
    return _mlp(rng, input_dim, num_classes, hidden=(64, 32))


@MODELS.register("mlp_large", summary="MLP with hidden layers 128-64, ELU")
def _mlp_large(
    rng: np.random.Generator, input_dim: int, num_classes: int
) -> Sequential:
    return _mlp(rng, input_dim, num_classes, hidden=(128, 64))


@MODELS.register("linear", summary="single linear layer (multinomial logistic)")
def _linear_model(
    rng: np.random.Generator, input_dim: int, num_classes: int
) -> Sequential:
    return Sequential([Linear(input_dim, num_classes, rng)])


def available_models() -> list[str]:
    """Names accepted by :func:`build_model`."""
    return MODELS.names()


def build_model(
    name: str,
    input_dim: int,
    num_classes: int,
    rng: np.random.Generator | int | None = None,
) -> Sequential:
    """Build a registered model.

    Parameters
    ----------
    name:
        One of :func:`available_models`.
    input_dim, num_classes:
        Feature dimensionality and number of output classes.
    rng:
        Generator or seed used for weight initialisation.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return MODELS.build(name, rng=rng, input_dim=input_dim, num_classes=num_classes)


def model_for_dataset(
    dataset_name: str,
    input_dim: int,
    num_classes: int,
    rng: np.random.Generator | int | None = None,
) -> Sequential:
    """Build the default model for a registered dataset.

    The choice comes from the dataset registry's ``default_model``
    metadata (datasets without one, including unregistered names, fall
    back to ``mlp_small``); MNIST/Colorectal used the larger CNN in the
    paper and map to the medium MLP, the MLP-based Fashion/USPS to the
    small one.
    """
    # Imported here: the model registry stays usable without the data layer.
    from repro.data.registry import DATASETS

    model_name = "mlp_small"
    if dataset_name in DATASETS:
        model_name = DATASETS.metadata(dataset_name).get("default_model", "mlp_small")
    return build_model(model_name, input_dim, num_classes, rng)
