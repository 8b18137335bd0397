"""Minimal neural-network substrate with per-example gradients.

The paper's protocol (Algorithm 1) operates on *per-example* gradient
vectors: each sample's gradient is normalised to unit length before being
averaged, perturbed with Gaussian noise, and uploaded.  Mainstream autodiff
frameworks (PyTorch + Opacus in the paper) expose this through hooks; here we
provide a small, fully self-contained NumPy implementation whose backward
pass records every example's gradient as rank-1 layer factors, which
``Sequential`` expands into flat per-example gradients on demand.

Public API
----------
- :class:`~repro.nn.layers.Linear`, :class:`~repro.nn.layers.ReLU`,
  :class:`~repro.nn.layers.ELU`, :class:`~repro.nn.layers.Tanh`,
  :class:`~repro.nn.layers.Flatten` -- layers.
- :class:`~repro.nn.network.Sequential` -- a feed-forward container with
  ``per_example_gradients`` and flat parameter get/set.
- :func:`~repro.nn.losses.softmax_cross_entropy` -- loss + gradient.
- :func:`~repro.nn.models.build_model` -- model registry used by the
  federated experiments.
- :func:`~repro.nn.metrics.accuracy` -- evaluation helper.
"""

from repro.nn.layers import ELU, Flatten, Layer, Linear, ReLU, Tanh
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn.metrics import accuracy, confusion_matrix
from repro.nn.models import MODELS, available_models, build_model, model_for_dataset
from repro.nn.network import Sequential

__all__ = [
    "ELU",
    "Flatten",
    "Layer",
    "Linear",
    "ReLU",
    "Tanh",
    "Sequential",
    "softmax",
    "softmax_cross_entropy",
    "accuracy",
    "confusion_matrix",
    "MODELS",
    "available_models",
    "build_model",
    "model_for_dataset",
]
