"""Feed-forward layers with per-example parameter gradients.

Every layer implements the protocol

- ``forward(x)``: compute the layer output for a batch ``x`` of shape
  ``(batch, ...)`` and cache whatever the backward pass needs.
- ``backward(grad_output)``: given the loss gradient with respect to the
  layer output, return the loss gradient with respect to the layer input and,
  for layers with parameters, store the **per-example** parameter gradients.

Per-example gradients are the central requirement of the paper's DP protocol
(each example's gradient is normalised to unit norm before averaging), so the
backward pass never collapses the batch dimension for parameter gradients.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform, zeros

__all__ = ["Layer", "Linear", "ReLU", "ELU", "Tanh", "Flatten"]


class Layer:
    """Base class for all layers.

    Layers without parameters only implement :meth:`forward` and
    :meth:`backward`.  Layers with parameters additionally expose
    ``parameters`` (list of arrays), ``per_example_grads`` (list of arrays
    with a leading batch axis, filled in by ``backward``) and
    ``set_parameters``.
    """

    #: arrays owned by the layer; empty for activation layers
    parameters: list[np.ndarray]
    #: per-example gradients matching ``parameters``; ``None`` before backward
    per_example_grads: list[np.ndarray] | None
    #: whether ``backward`` may write into caller-bound gradient buffers;
    #: toggled per call by the owner (``Sequential``) so a retained binding
    #: is only used by the call that actually passed that buffer
    use_bound_grad_buffers: bool
    #: whether the layer can run ``backward`` in *capture* mode: instead of
    #: materialising per-example parameter gradients it records the small
    #: factors they are built from (for ``Linear``: the layer input ``X`` and
    #: the output gradient ``Delta``, since ``g_j = x_j (x) delta_j`` is
    #: rank-1).  The ghost-norm client engine relies on these factors to
    #: compute slot norms and weighted gradient sums from Gram matrices
    #: without ever allocating the ``(batch, d)`` gradient tensor.
    supports_grad_factors: bool = False
    #: per-call switch for capture mode (set by ``Sequential``); when on,
    #: ``backward`` stores :attr:`grad_factors` and skips the per-example
    #: gradient materialisation entirely
    capture_grad_factors: bool
    #: the captured ``(input, grad_output)`` pair of the last capture-mode
    #: backward; ``None`` outside capture mode
    grad_factors: tuple[np.ndarray, np.ndarray] | None

    def __init__(self) -> None:
        self.parameters = []
        self.per_example_grads = None
        self.use_bound_grad_buffers = False
        self.capture_grad_factors = False
        self.grad_factors = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bind_per_example_grad_buffers(
        self, buffers: list[np.ndarray] | None
    ) -> bool:
        """Ask the layer to write per-example grads into caller-owned arrays.

        ``buffers`` matches ``parameters`` with a leading batch axis (views
        into a flat gradient matrix, possibly strided); ``None`` unbinds and
        reverts to layer-owned buffers.  Returns ``True`` if the layer
        supports direct writes -- the caller then skips its copy for this
        layer.  Bound buffers are only written when
        :attr:`use_bound_grad_buffers` is set (the owner enables it exactly
        for calls targeting that buffer); other backward passes -- e.g. the
        server's auxiliary gradient between training rounds -- use
        layer-owned scratch while keeping the binding intact.  The base
        implementation (activations, layers without the optimisation)
        declines.
        """
        return False

    @property
    def num_parameters(self) -> int:
        """Total number of scalar parameters owned by the layer."""
        return int(sum(p.size for p in self.parameters))

    def set_parameters(self, new_parameters: list[np.ndarray]) -> None:
        """Replace the layer parameters with ``new_parameters`` (same shapes)."""
        if len(new_parameters) != len(self.parameters):
            raise ValueError(
                f"expected {len(self.parameters)} parameter arrays, "
                f"got {len(new_parameters)}"
            )
        for current, new in zip(self.parameters, new_parameters):
            if current.shape != new.shape:
                raise ValueError(
                    f"parameter shape mismatch: {current.shape} vs {new.shape}"
                )
            current[...] = new


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

    supports_grad_factors = True

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
        self._input: np.ndarray | None = None
        self._bound_grads: list[np.ndarray] | None = None
        self._grad_weight: np.ndarray | None = None
        self._grad_bias: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._input = x
        return x @ self.weight + self.bias

    def bind_per_example_grad_buffers(
        self, buffers: list[np.ndarray] | None
    ) -> bool:
        if buffers is None:
            self._bound_grads = None
            return True
        grad_weight, grad_bias = buffers
        if (
            grad_weight.shape[1:] != self.weight.shape
            or grad_bias.shape[1:] != self.bias.shape
            or grad_weight.shape[0] != grad_bias.shape[0]
        ):
            raise ValueError("bound gradient buffers do not match parameter shapes")
        self._bound_grads = [grad_weight, grad_bias]
        return True

    def capture_terminal_grad_factors(self, grad_output: np.ndarray) -> None:
        """Record ghost factors for a *terminal* layer without a backward pass.

        Equivalent to a capture-mode :meth:`backward` except the input
        gradient ``grad_output @ W^T`` is never formed -- that return value
        only exists to keep propagating below this layer, so when the layer
        is the last (and only) parametrised layer of the network the GEMM is
        pure waste.  The fused ghost engine calls this directly after the
        forward pass; the recorded factors are bitwise the same arrays a
        capture-mode backward would store.
        """
        if self._input is None:
            raise RuntimeError("capture_terminal_grad_factors called before forward")
        if grad_output.shape != (self._input.shape[0], self.out_features):
            raise ValueError(
                f"expected grad_output of shape "
                f"({self._input.shape[0]}, {self.out_features}), got {grad_output.shape}"
            )
        self.grad_factors = (self._input, grad_output)
        self.per_example_grads = None

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        batch = x.shape[0]
        if self.capture_grad_factors:
            # Ghost path: the per-example weight gradient is the rank-1
            # outer product ``x_j (x) delta_j`` and the bias gradient is
            # ``delta_j``, so recording the two factors is enough for any
            # consumer that only needs norms, Gram matrices or weighted
            # sums -- the (batch, in*out) gradient tensor is never built.
            self.grad_factors = (x, grad_output)
            self.per_example_grads = None
            return self._input_gradient(grad_output)
        # Per-example gradients land in buffers reused across backward passes
        # -- caller-bound views into a flat gradient matrix when the owner
        # activated them for this call, layer-owned scratch otherwise (so an
        # interleaved pass, e.g. the server's auxiliary gradient, can never
        # clobber a caller's bound buffer); ``per_example_grads`` is
        # therefore only valid until the next backward call.
        if (
            self.use_bound_grad_buffers
            and self._bound_grads is not None
            and self._bound_grads[0].shape[0] == batch
        ):
            grad_weight, grad_bias = self._bound_grads
        else:
            if self._grad_weight is None or self._grad_weight.shape[0] != batch:
                self._grad_weight = np.empty(
                    (batch, self.in_features, self.out_features), dtype=np.float64
                )
                self._grad_bias = np.empty(
                    (batch, self.out_features), dtype=np.float64
                )
            grad_weight, grad_bias = self._grad_weight, self._grad_bias
        # per-example weight gradient: outer product of input and output grads
        np.einsum("bi,bo->bio", x, grad_output, out=grad_weight)
        np.copyto(grad_bias, grad_output)
        self.per_example_grads = [grad_weight, grad_bias]
        return self._input_gradient(grad_output)

    def _input_gradient(self, grad_output: np.ndarray) -> np.ndarray:
        """``grad_output @ W^T`` with the same bits for any row count.

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

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._mask


class ELU(Layer):
    """Exponential linear unit, matching the paper's model architectures."""

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return np.where(x > 0, x, self.alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        derivative = np.where(x > 0, 1.0, self.alpha * np.exp(np.minimum(x, 0.0)))
        return grad_output * derivative


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(x)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * (1.0 - self._output**2)


class Flatten(Layer):
    """Flatten all but the leading (batch) dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_output.reshape(self._input_shape)
