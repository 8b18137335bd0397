"""Sequential network container with flat-parameter and per-example gradient APIs.

The federated-learning code treats a model as

- a flat parameter vector (``get_flat_parameters`` / ``set_flat_parameters``)
  that the server broadcasts and updates, and
- a gradient oracle producing either the mean gradient or per-example
  gradients as flat vectors.

Keeping everything as flat ``float64`` vectors makes the aggregation rules,
attacks and statistical tests straightforward array code.

A network holds only its layers' parameters, and every pass keeps its
activations to itself, so concurrent passes share one model.

A network's architecture is also plain data: :meth:`Sequential.spec` lists
its layers as JSON-ready objects and :meth:`Sequential.from_spec` rebuilds
the skeleton, which is how a model travels to another process without its
code.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import ELU, Flatten, Layer, Linear, ReLU, Tanh
from repro.nn.losses import softmax, softmax_cross_entropy

__all__ = ["Sequential", "expand_grad_factors", "spec_dimensions"]

#: Most bytes of per-example gradient rows :meth:`Sequential.mean_gradient`
#: expands at once: 4 rows at the paper's d = 6570.
_MEAN_BLOCK_BYTES = 1 << 18

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


def expand_grad_factors(
    factors: list[tuple[Layer, np.ndarray, np.ndarray]],
    out: np.ndarray,
    start: int = 0,
) -> np.ndarray:
    """Expand captured factors into per-example flat gradients.

    ``factors`` is what :meth:`Sequential.per_example_grad_factors`
    returns.  Row ``r`` of ``out`` (C-contiguous ``float64``, one column
    per parameter) becomes the flat gradient of example ``start + r``:
    per layer, ``vec(x (x) delta)`` written by one ``einsum`` into the
    weight columns, then a copy of ``delta`` into the bias columns.  Every
    value is a single rounded product, so a row's bits do not depend on
    how many rows one call expands.  Returns ``out``.
    """
    rows = slice(start, start + out.shape[0])
    offset = 0
    for _, inputs, deltas in factors:
        fan_in, fan_out = inputs.shape[1], deltas.shape[1]
        stop = offset + fan_in * fan_out
        weights = out[:, offset:stop].reshape(-1, fan_in, fan_out)
        np.einsum("bi,bo->bio", inputs[rows], deltas[rows], out=weights)
        out[:, stop:stop + fan_out] = deltas[rows]
        offset = stop + fan_out
    return out


class Sequential:
    """A feed-forward stack of :class:`~repro.nn.layers.Layer` objects."""

    def __init__(self, layers: list[Layer]) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)

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

    # ------------------------------------------------------------------ #
    # gradients
    # ------------------------------------------------------------------ #
    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean softmax cross-entropy loss on a batch."""
        losses, _ = softmax_cross_entropy(self.forward(x), y)
        return float(np.mean(losses))

    def per_example_gradients(
        self, x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-example flat gradients of the loss.

        :meth:`per_example_grad_factors` followed by
        :func:`expand_grad_factors`, so the rows are bitwise what the
        materialized client engine expands.

        Parameters
        ----------
        x, y:
            Input batch and integer labels.
        out:
            Optional preallocated C-contiguous ``(batch, d)`` ``float64``
            array receiving the flat gradients.

        Returns
        -------
        losses:
            Per-example loss values, shape ``(batch,)``.
        gradients:
            Array of shape ``(batch, d)`` whose ``i``-th row is the gradient
            of example ``i``'s loss with respect to the flat parameters
            (``out`` itself when provided).
        """
        shape = (x.shape[0], self.num_parameters)
        if out is None:
            out = np.empty(shape, dtype=np.float64)
        elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape {shape}, "
                f"got {out.dtype} {out.shape}"
            )
        losses, factors = self.per_example_grad_factors(x, y)
        return losses, expand_grad_factors(factors, out)

    def per_example_grad_factors(
        self, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[Layer, np.ndarray, np.ndarray]]]:
        """Rank-1 factors of the per-example gradients, layer by layer.

        Runs one forward/backward pass whose activations live only in
        this call, and takes from it each parametrised layer's pair of
        small factors: the layer input ``X`` and the output gradient
        ``Delta`` (the flat gradient of example ``j`` is ``[vec(x_j (x)
        delta_j); delta_j]``).  The backward pass stops at the lowest
        parametrised layer, whose input gradient nothing consumes.  Both
        client engines start here -- the ghost-norm engine contracts the
        factors into Gram-matrix norms and weighted sums, the materialized
        engine expands them one group of workers at a time
        (:func:`expand_grad_factors`).

        Returns
        -------
        losses:
            Per-example loss values, shape ``(batch,)``.
        factors:
            One ``(layer, input, grad_output)`` triple per parametrised
            layer, in network order.

        Raises
        ------
        RuntimeError
            If a parametrised layer's parameters are not a ``(weight (in,
            out), bias (out,))`` pair for its input and output widths.
        """
        outputs = [np.asarray(x, dtype=np.float64)]
        for layer in self.layers:
            outputs.append(layer.forward(outputs[-1]))
        losses, grad = softmax_cross_entropy(outputs[-1], y)
        lowest = next(
            (index for index, layer in enumerate(self.layers) if layer.parameters),
            len(self.layers),
        )
        factors = []
        for index in range(len(self.layers) - 1, lowest - 1, -1):
            layer, output = self.layers[index], outputs.pop()
            inputs = outputs[-1]
            if layer.parameters:
                if [parameter.shape for parameter in layer.parameters] != [
                    (inputs.shape[1], grad.shape[1]), (grad.shape[1],)
                ]:
                    raise RuntimeError(
                        f"{type(layer).__name__} does not follow the linear "
                        "(weight, bias) gradient factor convention"
                    )
                factors.append((layer, inputs, grad))
            if index > lowest:
                grad = layer.backward(grad, inputs, output)
        return losses, factors[::-1]

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
        """Mean loss and mean flat gradient over the batch.

        One capture pass, then the per-example gradients are expanded a
        block of at most ``_MEAN_BLOCK_BYTES`` at a time
        (:func:`expand_grad_factors`) and added to a zero vector row by
        row, in order.  NumPy's axis-0 sum of a C-contiguous matrix adds
        its rows the same way, so for ``d >= 2`` the mean equals
        ``per_example_gradients(x, y)[1].mean(axis=0)`` bit for bit,
        without the ``(batch, d)`` matrix.  (NumPy sums a single column
        pairwise, so a one-parameter model may differ in the last bits.)
        """
        losses, factors = self.per_example_grad_factors(x, y)
        rows, dimension = len(losses), self.num_parameters
        size = max(1, min(rows, _MEAN_BLOCK_BYTES // (8 * dimension)))
        block = np.empty((size, dimension), dtype=np.float64)
        total = np.zeros(dimension, dtype=np.float64)
        for start in range(0, rows, size):
            for gradient in expand_grad_factors(
                factors, block[: min(size, rows - start)], start
            ):
                total += gradient
        return float(np.mean(losses)), np.divide(total, rows, out=total)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(type(layer).__name__ for layer in self.layers)
        return f"Sequential([{inner}], d={self.num_parameters})"
