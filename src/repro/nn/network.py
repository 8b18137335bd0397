"""Sequential network container with flat-parameter and per-example gradient APIs.

The federated-learning code treats a model as

- a flat parameter vector (``get_flat_parameters`` / ``set_flat_parameters``)
  that the server broadcasts and updates, and
- a gradient oracle producing either the mean gradient or per-example
  gradients as flat vectors.

Keeping everything as flat ``float64`` vectors makes the aggregation rules,
attacks and statistical tests straightforward array code.

A network's architecture is also plain data: :meth:`Sequential.spec` lists
its layers as JSON-ready objects and :meth:`Sequential.from_spec` rebuilds
the skeleton, which is how a model travels to another process without its
code.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn.layers import ELU, Flatten, Layer, Linear, ReLU, Tanh
from repro.nn.losses import softmax, softmax_cross_entropy

__all__ = ["Sequential", "spec_dimensions"]

#: The layer types a network spec may name, with the constructor arguments
#: of each (read back from the layer's attributes) and their types.
_SPEC_LAYERS: dict[str, tuple[type[Layer], dict[str, type]]] = {
    "Linear": (Linear, {"in_features": int, "out_features": int}),
    "ELU": (ELU, {"alpha": float}),
    "ReLU": (ReLU, {}),
    "Tanh": (Tanh, {}),
    "Flatten": (Flatten, {}),
}


def spec_dimensions(spec: object) -> tuple[int, int, int]:
    """``(inputs, outputs, parameters)`` of the network ``spec`` describes.

    Checks the spec without building a layer: a non-empty list of
    ``{"layer": name, **arguments}`` objects, each naming a layer type of
    :meth:`Sequential.spec` with exactly its arguments, at least one
    ``Linear``, positive integer widths, each ``Linear`` taking the width
    the previous one produced, and a positive ``alpha`` for ``ELU``.
    Raises :class:`ValueError` otherwise.
    """
    if not isinstance(spec, list) or not spec:
        raise ValueError("a network spec is a non-empty list of layer objects")
    inputs = width = None
    parameters = 0
    for position, entry in enumerate(spec):
        name = entry.get("layer") if isinstance(entry, dict) else None
        if not isinstance(name, str) or name not in _SPEC_LAYERS:
            raise ValueError(f"spec layer {position}: unknown layer {name!r}")
        arguments = _SPEC_LAYERS[name][1]
        if entry.keys() != {"layer", *arguments}:
            raise ValueError(
                f"spec layer {position}: {name} takes {sorted(arguments)}, "
                f"got {sorted(key for key in entry if key != 'layer')}"
            )
        if name == "Linear":
            fan_in, fan_out = entry["in_features"], entry["out_features"]
            if not all(type(value) is int and value > 0 for value in (fan_in, fan_out)):
                raise ValueError(f"spec layer {position}: Linear widths must be positive ints")
            if width is not None and fan_in != width:
                raise ValueError(
                    f"spec layer {position}: Linear takes {fan_in} inputs, "
                    f"the previous one produces {width}"
                )
            inputs = fan_in if inputs is None else inputs
            width = fan_out
            parameters += (fan_in + 1) * fan_out
        elif name == "ELU":
            alpha = entry["alpha"]
            if type(alpha) not in (int, float) or not alpha > 0:
                raise ValueError(f"spec layer {position}: ELU alpha must be positive")
    if width is None:
        raise ValueError("a network spec needs at least one Linear layer")
    return inputs, width, parameters


class Sequential:
    """A feed-forward stack of :class:`~repro.nn.layers.Layer` objects."""

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        # (out array, batch, bound-layer ids) of the current gradient-buffer
        # binding; lets repeated calls with the same preallocated buffer
        # (the batched client path) skip re-binding every round.  The array
        # object itself is held (identity-compared), so a recycled object id
        # can never produce a false cache hit.
        self._grad_binding: tuple[np.ndarray, int, frozenset[int]] | None = None

    # ------------------------------------------------------------------ #
    # forward / prediction
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network forward and return the logits."""
        out = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return the predicted class index for each example."""
        return np.argmax(self.forward(x), axis=-1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Return softmax class probabilities for each example."""
        return softmax(self.forward(x))

    # ------------------------------------------------------------------ #
    # parameter handling
    # ------------------------------------------------------------------ #
    @property
    def num_parameters(self) -> int:
        """Total number of trainable scalars (the model size ``d``)."""
        return int(sum(layer.num_parameters for layer in self.layers))

    def get_flat_parameters(self) -> np.ndarray:
        """Concatenate every parameter array into one flat ``float64`` vector."""
        chunks = [
            parameter.reshape(-1)
            for layer in self.layers
            for parameter in layer.parameters
        ]
        if not chunks:
            return np.zeros(0, dtype=np.float64)
        # dtype= casts during the concatenation itself; a trailing .astype
        # would copy the result a second time even when already float64.
        return np.concatenate(chunks, dtype=np.float64)

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector produced by :meth:`get_flat_parameters`."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.ndim != 1 or flat.size != self.num_parameters:
            raise ValueError(
                f"expected a flat vector of length {self.num_parameters}, "
                f"got shape {flat.shape}"
            )
        offset = 0
        for layer in self.layers:
            for parameter in layer.parameters:
                size = parameter.size
                parameter[...] = flat[offset : offset + size].reshape(parameter.shape)
                offset += size

    def spec(self) -> list[dict]:
        """The architecture as JSON-ready data, without the parameters.

        One ``{"layer": name, **arguments}`` object per layer, e.g.
        ``{"layer": "Linear", "in_features": 256, "out_features": 10}``.
        Raises :class:`TypeError` for a layer type a spec cannot name.
        """
        spec = []
        for layer in self.layers:
            name = type(layer).__name__
            layer_type, arguments = _SPEC_LAYERS.get(name, (None, {}))
            if type(layer) is not layer_type:
                raise TypeError(f"{name} is not a layer type a network spec can name")
            spec.append({
                "layer": name,
                **{key: cast(getattr(layer, key)) for key, cast in arguments.items()},
            })
        return spec

    @classmethod
    def from_spec(cls, spec: list[dict]) -> "Sequential":
        """The network ``spec`` describes (see :meth:`spec`), parameters zero.

        Load the parameters with :meth:`set_flat_parameters`.  The spec is
        checked by :func:`spec_dimensions` first, so an invalid one raises
        :class:`ValueError` before any layer is built.
        """
        spec_dimensions(spec)
        layers = []
        for entry in spec:
            layer_type, arguments = _SPEC_LAYERS[entry["layer"]]
            values = {key: cast(entry[key]) for key, cast in arguments.items()}
            if layer_type is Linear:
                values["rng"] = None
            layers.append(layer_type(**values))
        return cls(layers)

    def clone(self) -> "Sequential":
        """Deep copy of the network (structure and parameters).

        Any gradient-buffer binding is dropped first (deep-copying would
        otherwise duplicate the caller's flat buffer and sever the view
        relationship); the next bound call simply re-binds.
        """
        self.unbind_per_example_grad_buffers()
        return copy.deepcopy(self)

    # ------------------------------------------------------------------ #
    # gradients
    # ------------------------------------------------------------------ #
    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean softmax cross-entropy loss on a batch."""
        losses, _ = softmax_cross_entropy(self.forward(x), y)
        return float(np.mean(losses))

    def _backward(self, grad_logits: np.ndarray) -> None:
        grad = grad_logits
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def per_example_gradients(
        self, x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-example flat gradients of the loss.

        Parameters
        ----------
        x, y:
            Input batch and integer labels.
        out:
            Optional preallocated ``(batch, d)`` ``float64`` array receiving
            the flat gradients (the batched client path reuses one such
            buffer across rounds instead of re-allocating per call).

        Returns
        -------
        losses:
            Per-example loss values, shape ``(batch,)``.
        gradients:
            Array of shape ``(batch, d)`` whose ``i``-th row is the gradient
            of example ``i``'s loss with respect to the flat parameters
            (``out`` itself when provided).
        """
        batch = x.shape[0]
        if out is None:
            gradients = np.empty((batch, self.num_parameters), dtype=np.float64)
            # An existing binding is left in place but deactivated for this
            # call (bound layers use their own scratch; everything is copied
            # below), so interleaved out=None calls neither evict the
            # training path's binding nor clobber its buffer.
            bound = frozenset()
            if self._grad_binding is not None:
                for layer in self.layers:
                    layer.use_bound_grad_buffers = False
        else:
            if out.shape != (batch, self.num_parameters) or out.dtype != np.float64:
                raise ValueError(
                    f"out must be a float64 array of shape "
                    f"({batch}, {self.num_parameters}), got {out.dtype} {out.shape}"
                )
            gradients = out
            bound = self._bind_grad_buffers(gradients, batch)

        logits = self.forward(x)
        losses, grad_logits = softmax_cross_entropy(logits, y)
        self._backward(grad_logits)

        offset = 0
        for layer in self.layers:
            if not layer.parameters:
                continue
            if layer.per_example_grads is None:
                raise RuntimeError("layer backward did not populate per-example grads")
            for grad in layer.per_example_grads:
                size = int(np.prod(grad.shape[1:], dtype=np.int64))
                if id(layer) not in bound:
                    gradients[:, offset : offset + size] = grad.reshape(batch, -1)
                offset += size
        return losses, gradients

    def _bind_grad_buffers(self, gradients: np.ndarray, batch: int) -> frozenset[int]:
        """Hand every layer views into the flat gradient matrix.

        Backward then writes per-example grads directly in place (no copy
        afterwards); a layer that declines keeps its own buffers and is
        copied by the caller.  Returns the ids of the layers that accepted.
        The binding is cached on ``(id(out), batch)``: a worker pool reuses
        one buffer every round, so re-binding (and its view construction)
        happens only when the target buffer changes -- e.g. when honest and
        Byzantine pools alternate on the same model.  ``out=None`` calls in
        between (the server's auxiliary gradient) do not evict the binding.
        """
        if (
            self._grad_binding is not None
            and self._grad_binding[0] is gradients
            and self._grad_binding[1] == batch
        ):
            bound = self._grad_binding[2]
            for layer in self.layers:
                layer.use_bound_grad_buffers = id(layer) in bound
            return bound
        bound: set[int] = set()
        offset = 0
        for layer in self.layers:
            if not layer.parameters:
                continue
            views = []
            view_offset = offset
            for parameter in layer.parameters:
                size = parameter.size
                view = gradients[:, view_offset : view_offset + size].reshape(
                    (batch,) + parameter.shape
                )
                views.append(view)
                view_offset += size
            viewable = all(np.shares_memory(view, gradients) for view in views)
            if viewable and layer.bind_per_example_grad_buffers(views):
                bound.add(id(layer))
            else:
                layer.bind_per_example_grad_buffers(None)
            offset = view_offset
        self._grad_binding = (gradients, batch, frozenset(bound))
        for layer in self.layers:
            layer.use_bound_grad_buffers = id(layer) in bound
        return self._grad_binding[2]

    def unbind_per_example_grad_buffers(self) -> None:
        """Release the gradient-buffer binding (no-op if unbound).

        The binding (and the per-layer views backing it) holds a strong
        reference to the last ``out`` buffer passed to
        :meth:`per_example_gradients`.  Call this to let a discarded worker
        pool's scratch matrix be garbage-collected when the model outlives
        the pool; the next ``out=`` call simply re-binds.
        """
        if self._grad_binding is not None:
            for layer in self.layers:
                layer.bind_per_example_grad_buffers(None)
                layer.use_bound_grad_buffers = False
            self._grad_binding = None

    def per_example_grad_factors(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[Layer, np.ndarray, np.ndarray]]]:
        """Rank-1 factors of the per-example gradients, layer by layer.

        Runs one forward/backward with every parametrised layer in
        *capture* mode: instead of materialising its ``(batch, ...)``
        per-example parameter gradients, each layer records the pair of
        small factors they are built from (for :class:`~repro.nn.layers
        .Linear`: the layer input ``X`` and the output gradient ``Delta``;
        the flat gradient of example ``j`` is ``[vec(x_j (x) delta_j);
        delta_j]``).  This is what the ghost-norm client engine consumes --
        slot norms come from the ``b x b`` Gram matrices ``(X X^T) (.)
        (Delta Delta^T)`` and weighted gradient sums from two batched
        GEMMs, so the ``(batch, d)`` gradient tensor never exists.

        Returns
        -------
        losses:
            Per-example loss values, shape ``(batch,)``.
        factors:
            One ``(layer, input, grad_output)`` triple per parametrised
            layer, in network order.  The arrays are views/buffers owned by
            the forward/backward pass -- consume them before the next pass
            through the model.

        Raises
        ------
        RuntimeError
            If any parametrised layer does not support factor capture
            (``supports_grad_factors`` is ``False``).
        """
        for layer in self.layers:
            if layer.parameters and not layer.supports_grad_factors:
                raise RuntimeError(
                    f"{type(layer).__name__} does not support per-example "
                    "gradient factor capture; use the materialized engine "
                    "for this model"
                )
        try:
            for layer in self.layers:
                if layer.parameters:
                    layer.capture_grad_factors = True
            logits = self.forward(x)
            losses, grad_logits = softmax_cross_entropy(logits, y)
            self._backward(grad_logits)
        finally:
            for layer in self.layers:
                layer.capture_grad_factors = False
        factors = []
        for layer in self.layers:
            if not layer.parameters:
                continue
            if layer.grad_factors is None:
                raise RuntimeError("capture-mode backward did not record factors")
            factors.append((layer, *layer.grad_factors))
        return losses, factors

    def parameter_layout(self) -> list[tuple[Layer, list[tuple[int, int, tuple[int, ...]]]]]:
        """Where each layer's parameters live in the flat vector.

        Returns one ``(layer, slices)`` pair per parametrised layer, where
        ``slices`` holds a ``(start, stop, shape)`` triple per parameter
        array, in the order :meth:`get_flat_parameters` concatenates them.
        """
        layout: list[tuple[Layer, list[tuple[int, int, tuple[int, ...]]]]] = []
        offset = 0
        for layer in self.layers:
            if not layer.parameters:
                continue
            slices = []
            for parameter in layer.parameters:
                slices.append((offset, offset + parameter.size, parameter.shape))
                offset += parameter.size
            layout.append((layer, slices))
        return layout

    def mean_gradient(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean loss and mean flat gradient over the batch."""
        losses, gradients = self.per_example_gradients(x, y)
        return float(np.mean(losses)), gradients.mean(axis=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Sequential([{inner}], d={self.num_parameters})"
