"""Shared fixtures for the test suite.

The fixtures deliberately use tiny models and datasets so that the whole
suite (several hundred tests, including a handful of end-to-end federated
runs) completes in a few minutes on a laptop CPU.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DPConfig, ProtocolConfig
from repro.data.dataset import Dataset
from repro.data.synthetic import make_classification
from repro.federated.worker import drop_thread_engines
from repro.nn.layers import ELU, Linear
from repro.nn.network import Sequential


@pytest.fixture(autouse=True)
def fresh_thread_engines() -> None:
    """Start every test with no cached engine on its thread.

    A thread keeps one engine per name, whose scratch grows to the
    largest shard it served, so scratch sizes and ``tracemalloc``
    readings would otherwise depend on which tests ran before.
    """
    drop_thread_engines()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_dataset(rng: np.random.Generator) -> Dataset:
    """A small, easy 3-class dataset (120 examples, 8 features)."""
    return make_classification(
        n_samples=120,
        n_features=8,
        n_classes=3,
        class_separation=4.0,
        within_class_std=0.6,
        nonlinear=False,
        rng=rng,
        name="small",
    )


@pytest.fixture
def tiny_dataset(rng: np.random.Generator) -> Dataset:
    """A minimal 2-class dataset (40 examples, 4 features)."""
    return make_classification(
        n_samples=40,
        n_features=4,
        n_classes=2,
        class_separation=4.0,
        within_class_std=0.5,
        nonlinear=False,
        rng=rng,
        name="tiny",
    )


@pytest.fixture
def small_model(rng: np.random.Generator) -> Sequential:
    """A small MLP matching ``small_dataset`` (8 -> 6 -> 3)."""
    return Sequential([Linear(8, 6, rng), ELU(), Linear(6, 3, rng)])


@pytest.fixture
def tiny_model(rng: np.random.Generator) -> Sequential:
    """A linear model matching ``tiny_dataset`` (4 -> 2)."""
    return Sequential([Linear(4, 2, rng)])


@pytest.fixture
def dp_config() -> DPConfig:
    """Default client-side DP configuration used in protocol tests."""
    return DPConfig(batch_size=8, sigma=1.0, momentum=0.1, bounding="normalize")


@pytest.fixture
def protocol_config() -> ProtocolConfig:
    """Default server-side protocol configuration."""
    return ProtocolConfig(gamma=0.5)


def numerical_gradient(model: Sequential, x: np.ndarray, y: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the mean loss (for gradient checks)."""
    base = model.get_flat_parameters()
    gradient = np.zeros_like(base)
    for index in range(base.size):
        perturbed = base.copy()
        perturbed[index] += step
        model.set_flat_parameters(perturbed)
        loss_plus = model.loss(x, y)
        perturbed[index] -= 2.0 * step
        model.set_flat_parameters(perturbed)
        loss_minus = model.loss(x, y)
        gradient[index] = (loss_plus - loss_minus) / (2.0 * step)
    model.set_flat_parameters(base)
    return gradient
