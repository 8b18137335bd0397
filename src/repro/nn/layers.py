"""Feed-forward layers that hold their parameters and nothing else.

Every layer implements ``forward(x)``, the output for a batch ``x`` of
shape ``(batch, ...)``, and ``backward(grad_output, x, y)``, the loss
gradient with respect to ``x`` given the one with respect to ``y =
forward(x)``.  The caller keeps a pass's activations, so concurrent
passes may share one layer.

Per-example gradients are the central requirement of the paper's DP protocol
(each example's gradient is normalised to unit norm before averaging).  A
linear layer's per-example weight gradient is the rank-1 outer product
``x_j (x) delta_j`` and its bias gradient is ``delta_j``, so the pair
``(X, Delta)`` of its input and output gradient keeps every example's
gradient without a ``(batch, in, out)`` tensor;
:meth:`~repro.nn.network.Sequential.per_example_grad_factors` collects the
pairs in its capture pass and :class:`~repro.nn.network.Sequential` expands
or contracts them as its caller needs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform, zeros

__all__ = ["Layer", "Linear", "ReLU", "ELU", "Tanh", "Flatten"]


class Layer:
    """Base class for all layers.

    Layers without parameters only implement :meth:`forward` and
    :meth:`backward`.  Layers with parameters additionally expose
    ``parameters`` (list of arrays).
    """

    #: arrays owned by the layer; empty for activation layers
    parameters: list[np.ndarray]

    def __init__(self) -> None:
        self.parameters = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def num_parameters(self) -> int:
        """Total number of scalar parameters owned by the layer."""
        return int(sum(p.size for p in self.parameters))


class Linear(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    rng:
        Generator used for Glorot initialisation of the weight matrix;
        ``None`` leaves the weights zero (a skeleton whose parameters are
        loaded afterwards, see :meth:`~repro.nn.network.Sequential.from_spec`).
    """

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        if rng is None:
            self.weight = zeros((in_features, out_features))
        else:
            self.weight = glorot_uniform(rng, in_features, out_features)
        self.bias = zeros((out_features,))
        self.parameters = [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        return x @ self.weight + self.bias

    def backward(self, grad_output: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``Delta @ W^T``.

        The product takes a C-contiguous copy of ``W^T``: handed the
        transposed view, OpenBLAS (0.3.31) computes calls below ~19 rows
        with a different accumulation order, so a small shard's gradients
        would differ in the low bits from the same rows of a larger call.
        At the registered MLP widths the plain product gives a row the
        same bits for any row count that is a multiple of 4, and from ~19
        rows up it equals the transposed product bit for bit.
        """
        return grad_output @ np.ascontiguousarray(self.weight.T)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Layer):
    """Rectified linear activation ``max(x, 0)``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, 0.0)

    def backward(self, grad_output: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return grad_output * (x > 0)


class ELU(Layer):
    """Exponential linear unit, matching the paper's model architectures."""

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, self.alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))

    def backward(self, grad_output: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        derivative = np.where(x > 0, 1.0, self.alpha * np.exp(np.minimum(x, 0.0)))
        return grad_output * derivative


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, grad_output: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return grad_output * (1.0 - y**2)


class Flatten(Layer):
    """Flatten all but the leading (batch) dimension."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return grad_output.reshape(x.shape)
