"""Unit tests for the Sequential container: flat parameters, gradients, specs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.nn.layers import ELU, Flatten, Layer, Linear, ReLU, Tanh
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn import network
from repro.nn.models import build_model
from repro.nn.network import Sequential, expand_grad_factors, spec_dimensions
from tests.conftest import numerical_gradient


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(11)


class Scale(Layer):
    """An elementwise scale: parametrised, but not a (weight, bias) pair."""

    def __init__(self, width):
        super().__init__()
        self.parameters = [np.ones(width)]

    def forward(self, x):
        return x * self.parameters[0]

    def backward(self, grad_output, x, y):
        return grad_output * self.parameters[0]


def assert_layers_hold_only_parameters(model):
    """No layer keeps an array, or a container of them, besides its parameters."""
    for layer in model.layers:
        for name, value in vars(layer).items():
            if name == "parameters":
                continue
            assert not isinstance(value, (tuple, list, dict)), (layer, name)
            if isinstance(value, np.ndarray):
                assert any(value is parameter for parameter in layer.parameters), (layer, name)


@pytest.fixture
def model(rng) -> Sequential:
    return Sequential([Linear(6, 5, rng), ELU(), Linear(5, 3, rng)])


@pytest.fixture
def batch(rng):
    x = rng.normal(size=(10, 6))
    y = rng.integers(0, 3, size=10)
    return x, y


class TestConstruction:
    def test_requires_at_least_one_layer(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_num_parameters(self, model):
        assert model.num_parameters == (6 * 5 + 5) + (5 * 3 + 3)

    def test_repr_mentions_layers(self, model):
        text = repr(model)
        assert "Linear" in text and "ELU" in text


class TestForward:
    def test_logits_shape(self, model, batch):
        x, _ = batch
        assert model.forward(x).shape == (10, 3)

    def test_predict_returns_class_indices(self, model, batch):
        x, _ = batch
        predictions = model.predict(x)
        assert predictions.shape == (10,)
        assert np.all((predictions >= 0) & (predictions < 3))

    def test_predict_proba_rows_sum_to_one(self, model, batch):
        x, _ = batch
        probabilities = model.predict_proba(x)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        assert np.all(probabilities >= 0)

    def test_forward_is_deterministic(self, model, batch):
        x, _ = batch
        np.testing.assert_allclose(model.forward(x), model.forward(x))


class TestFlatParameters:
    def test_roundtrip(self, model):
        flat = model.get_flat_parameters()
        model.set_flat_parameters(flat * 0.0)
        np.testing.assert_allclose(model.get_flat_parameters(), 0.0)
        model.set_flat_parameters(flat)
        np.testing.assert_allclose(model.get_flat_parameters(), flat)

    def test_length_matches_num_parameters(self, model):
        assert model.get_flat_parameters().size == model.num_parameters

    def test_set_rejects_wrong_length(self, model):
        with pytest.raises(ValueError):
            model.set_flat_parameters(np.zeros(model.num_parameters + 1))

    def test_set_rejects_matrix(self, model):
        with pytest.raises(ValueError):
            model.set_flat_parameters(np.zeros((model.num_parameters, 1)))

    def test_set_changes_forward_output(self, model, batch):
        x, _ = batch
        before = model.forward(x)
        model.set_flat_parameters(model.get_flat_parameters() + 0.5)
        after = model.forward(x)
        assert not np.allclose(before, after)


class TestGradients:
    def test_per_example_gradients_shape(self, model, batch):
        x, y = batch
        losses, gradients = model.per_example_gradients(x, y)
        assert losses.shape == (10,)
        assert gradients.shape == (10, model.num_parameters)

    def test_mean_gradient_is_average_of_per_example(self, model, batch):
        x, y = batch
        _, per_example = model.per_example_gradients(x, y)
        _, mean_grad = model.mean_gradient(x, y)
        np.testing.assert_allclose(mean_grad, per_example.mean(axis=0))

    @pytest.mark.parametrize("block_rows", [1, 3, 4, None])
    @pytest.mark.parametrize("seed", range(5))
    def test_mean_gradient_is_the_axis0_mean_bitwise(self, monkeypatch, seed, block_rows):
        """Blocks of expanded rows added in order give ``mean(axis=0)``'s bits."""
        rng = np.random.default_rng(seed)
        hidden = int(rng.integers(2, 40))
        model = Sequential([Linear(12, hidden, rng), ReLU(), Linear(hidden, 3, rng)])
        rows = int(rng.integers(1, 30))
        x, y = rng.normal(size=(rows, 12)), rng.integers(0, 3, size=rows)
        if block_rows is not None:
            monkeypatch.setattr(
                network, "_MEAN_BLOCK_BYTES", 8 * model.num_parameters * block_rows,
                raising=False,
            )
        losses, per_example = model.per_example_gradients(x, y)
        mean_loss, mean_grad = model.mean_gradient(x, y)
        np.testing.assert_array_equal(mean_grad, per_example.mean(axis=0))
        assert mean_loss == float(np.mean(losses))

    def test_mean_loss_is_average_of_per_example(self, model, batch):
        x, y = batch
        losses, _ = model.per_example_gradients(x, y)
        mean_loss, _ = model.mean_gradient(x, y)
        assert mean_loss == pytest.approx(float(losses.mean()))

    def test_mean_gradient_matches_numerical(self, rng):
        """Analytic mean gradient agrees with central differences."""
        model = Sequential([Linear(4, 4, rng), ELU(), Linear(4, 2, rng)])
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 2, size=6)
        _, analytic = model.mean_gradient(x, y)
        numeric = numerical_gradient(model, x, y)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_per_example_gradient_matches_single_example_call(self, model, batch):
        """The i-th per-example gradient equals the gradient of a batch of one."""
        x, y = batch
        _, per_example = model.per_example_gradients(x, y)
        for i in (0, 4, 9):
            _, single = model.mean_gradient(x[i : i + 1], y[i : i + 1])
            np.testing.assert_allclose(per_example[i], single, atol=1e-10)

    def test_per_example_gradients_into_preallocated_buffer(self, model, batch):
        x, y = batch
        losses, gradients = model.per_example_gradients(x, y)
        buffer = np.empty((10, model.num_parameters), dtype=np.float64)
        losses_out, gradients_out = model.per_example_gradients(x, y, out=buffer)
        assert gradients_out is buffer
        np.testing.assert_array_equal(gradients_out, gradients)
        np.testing.assert_array_equal(losses_out, losses)

    @pytest.mark.parametrize("preallocated", [False, True])
    def test_gradients_are_the_expanded_factors_bitwise(self, model, batch, preallocated):
        """per_example_gradients is the capture pass plus expand_grad_factors."""
        x, y = batch
        out = np.empty((10, model.num_parameters)) if preallocated else None
        losses, gradients = model.per_example_gradients(x, y, out=out)
        factor_losses, factors = model.per_example_grad_factors(x, y)
        expected = expand_grad_factors(factors, np.empty((10, model.num_parameters)))
        np.testing.assert_array_equal(gradients, expected)
        np.testing.assert_array_equal(losses, factor_losses)
        # a row range expands to the same bits as the whole batch
        np.testing.assert_array_equal(
            expand_grad_factors(factors, np.empty((3, model.num_parameters)), start=4),
            expected[4:7],
        )

    def test_no_per_example_buffer_left_on_layers(self, model, batch):
        """Nothing batch-shaped outlives a call: a layer holds its parameters only."""
        x, y = batch
        model.per_example_gradients(x, y, out=np.empty((10, model.num_parameters)))
        model.per_example_gradients(x, y)
        assert_layers_hold_only_parameters(model)

    def test_per_example_gradients_rejects_bad_out(self, model, batch):
        x, y = batch
        with pytest.raises(ValueError):
            model.per_example_gradients(
                x, y, out=np.empty((9, model.num_parameters), dtype=np.float64)
            )
        with pytest.raises(ValueError):
            model.per_example_gradients(
                x, y, out=np.empty((10, model.num_parameters), dtype=np.float32)
            )
        with pytest.raises(ValueError, match="C-contiguous"):
            model.per_example_gradients(
                x, y, out=np.empty((model.num_parameters, 10), dtype=np.float64).T
            )

    def test_relu_network_gradient_check(self, rng):
        model = Sequential([Linear(3, 5, rng), ReLU(), Linear(5, 3, rng)])
        x = rng.normal(size=(5, 3)) + 0.1
        y = rng.integers(0, 3, size=5)
        _, analytic = model.mean_gradient(x, y)
        numeric = numerical_gradient(model, x, y)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_gradient_descent_reduces_loss(self, model, batch):
        x, y = batch
        loss_before = model.loss(x, y)
        for _ in range(20):
            _, gradient = model.mean_gradient(x, y)
            model.set_flat_parameters(model.get_flat_parameters() - 0.5 * gradient)
        assert model.loss(x, y) < loss_before

    def test_loss_is_positive(self, model, batch):
        x, y = batch
        assert model.loss(x, y) > 0.0


class TestGradFactorCapture:
    """per_example_grad_factors: the ghost path's rank-1 factor capture."""

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(3)

    def test_factors_reconstruct_per_example_gradients(self, rng):
        model = Sequential([Linear(4, 6, rng), ELU(), Linear(6, 3, rng)])
        x = rng.normal(size=(7, 4))
        y = rng.integers(0, 3, size=7)
        losses_ref, per_example = model.per_example_gradients(x, y)
        losses, factors = model.per_example_grad_factors(x, y)
        np.testing.assert_allclose(losses, losses_ref, rtol=1e-12)
        assert len(factors) == 2
        rebuilt = []
        for layer, inputs, deltas in factors:
            weight_grads = np.einsum("bi,bo->bio", inputs, deltas)
            rebuilt.append(weight_grads.reshape(7, -1))
            rebuilt.append(deltas)
        np.testing.assert_allclose(
            np.concatenate(rebuilt, axis=1), per_example, rtol=1e-12, atol=1e-15
        )

    def test_factors_are_each_linear_layers_input_and_output_gradient(self, rng):
        """The capture pass pairs each Linear's input with its output gradient."""
        first, activation, second = Linear(4, 6, rng), ELU(), Linear(6, 3, rng)
        model = Sequential([first, activation, second])
        x = rng.normal(size=(7, 4))
        y = rng.integers(0, 3, size=7)
        hidden = first.forward(x)
        active = activation.forward(hidden)
        logits = second.forward(active)
        _, delta = softmax_cross_entropy(logits, y)
        hidden_delta = activation.backward(second.backward(delta, active, logits), hidden, active)
        _, factors = model.per_example_grad_factors(x, y)
        assert [layer for layer, _, _ in factors] == [first, second]
        assert factors[0][1] is x
        for (_, inputs, deltas), (expected_inputs, expected_deltas) in zip(
            factors, [(x, hidden_delta), (active, delta)]
        ):
            np.testing.assert_array_equal(inputs, expected_inputs)
            np.testing.assert_array_equal(deltas, expected_deltas)

    def test_capture_forms_no_network_input_gradient(self, rng):
        """The lowest parametrised layer's factors need no backward call:
        nothing forms Delta @ W^T there, nor runs the layers below it."""
        model = Sequential([Flatten(), Linear(5, 4, rng), ELU(), Linear(4, 3, rng)])
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)
        calls = []
        for layer in model.layers:
            def spy(grad, x, y, _backward=layer.backward, _layer=layer):
                calls.append(type(_layer).__name__)
                return _backward(grad, x, y)
            layer.backward = spy
        _, factors = model.per_example_grad_factors(x, y)
        assert calls == ["Linear", "ELU"]
        assert [layer for layer, _, _ in factors] == [model.layers[1], model.layers[3]]

    def test_capture_does_not_break_materialized_path(self, rng):
        """Interleaved capture and materialized passes stay independent."""
        model = Sequential([Linear(5, 3, rng)])
        x = rng.normal(size=(4, 5))
        y = rng.integers(0, 3, size=4)
        _, before = model.per_example_gradients(x, y)
        before = before.copy()
        model.per_example_grad_factors(x, y)
        _, after = model.per_example_gradients(x, y)
        np.testing.assert_array_equal(before, after)

    def test_parametrised_non_linear_layer_raises(self, rng):
        model = Sequential([Scale(4), Linear(4, 2, rng)])
        x = rng.normal(size=(3, 4))
        y = rng.integers(0, 2, size=3)
        with pytest.raises(RuntimeError, match="Scale does not follow"):
            model.per_example_grad_factors(x, y)
        with pytest.raises(RuntimeError, match="Scale does not follow"):
            model.per_example_gradients(x, y)

    def test_factors_off_the_linear_convention_raise(self, rng):
        class ScaledLinear(Linear):
            """A third parameter the (weight, bias) expansion cannot place."""

            def __init__(self, *args):
                super().__init__(*args)
                self.parameters = [*self.parameters, np.ones(1)]

        model = Sequential([ScaledLinear(4, 2, rng)])
        x = rng.normal(size=(3, 4))
        y = rng.integers(0, 2, size=3)
        with pytest.raises(RuntimeError, match="ScaledLinear does not follow"):
            model.per_example_grad_factors(x, y)


class TestParameterLayout:
    def test_layout_matches_flat_concatenation(self):
        rng = np.random.default_rng(0)
        model = Sequential([Linear(4, 6, rng), ReLU(), Linear(6, 3, rng)])
        flat = model.get_flat_parameters()
        layout = model.parameter_layout()
        assert len(layout) == 2
        for layer, slices in layout:
            for (start, stop, shape), parameter in zip(slices, layer.parameters):
                assert shape == parameter.shape
                np.testing.assert_array_equal(
                    flat[start:stop].reshape(shape), parameter
                )
        stops = [stop for _, slices in layout for _, stop, _ in slices]
        assert stops[-1] == model.num_parameters


class TestSpec:
    """The architecture as data: what a model is when it leaves the process."""

    def test_spec_is_json_and_rebuilds_the_same_network(self, model, batch):
        x, y = batch
        spec = json.loads(json.dumps(model.spec()))
        assert spec == [
            {"layer": "Linear", "in_features": 6, "out_features": 5},
            {"layer": "ELU", "alpha": 1.0},
            {"layer": "Linear", "in_features": 5, "out_features": 3},
        ]
        rebuilt = Sequential.from_spec(spec)
        np.testing.assert_array_equal(rebuilt.get_flat_parameters(), 0.0)
        rebuilt.set_flat_parameters(model.get_flat_parameters())
        np.testing.assert_array_equal(rebuilt.forward(x), model.forward(x))
        np.testing.assert_array_equal(
            rebuilt.per_example_gradients(x, y)[1], model.per_example_gradients(x, y)[1]
        )

    @pytest.mark.parametrize("name", ["mlp_small", "mlp_medium", "mlp_large", "linear"])
    def test_registered_models_round_trip(self, name):
        model = build_model(name, 12, 4, rng=3)
        spec = model.spec()
        assert spec_dimensions(spec) == (12, 4, model.num_parameters)
        assert Sequential.from_spec(spec).spec() == spec

    def test_every_spec_layer_type_round_trips(self, rng):
        model = Sequential([Flatten(), Linear(4, 3, rng), Tanh(), ReLU(),
                            ELU(alpha=0.5), Linear(3, 2, rng)])
        assert Sequential.from_spec(model.spec()).spec() == model.spec()

    def test_unnameable_layer_raises_type_error(self, rng):
        class Custom(Layer):
            pass

        with pytest.raises(TypeError, match="Custom"):
            Sequential([Linear(2, 2, rng), Custom()]).spec()

    @pytest.mark.parametrize("spec, match", [
        ([], "non-empty"),
        ({"layer": "Linear"}, "non-empty"),
        ([{"layer": "Conv2d"}], "unknown layer"),
        ([{"layer": ["Linear"]}], "unknown layer"),
        (["Linear"], "unknown layer"),
        ([{"layer": "Linear", "in_features": 2}], "takes"),
        ([{"layer": "Linear", "in_features": 2, "out_features": 3, "rng": 0}], "takes"),
        ([{"layer": "Linear", "in_features": 0, "out_features": 3}], "positive"),
        ([{"layer": "Linear", "in_features": 2.0, "out_features": 3}], "positive"),
        ([{"layer": "Linear", "in_features": True, "out_features": 3}], "positive"),
        ([{"layer": "Linear", "in_features": 2, "out_features": 3},
          {"layer": "Linear", "in_features": 4, "out_features": 3}], "previous"),
        ([{"layer": "Linear", "in_features": 2, "out_features": 3},
          {"layer": "ELU", "alpha": 0}], "alpha"),
        ([{"layer": "ReLU"}], "at least one Linear"),
    ])
    def test_invalid_specs_raise_before_building(self, spec, match):
        with pytest.raises(ValueError, match=match):
            spec_dimensions(spec)
        with pytest.raises(ValueError, match=match):
            Sequential.from_spec(spec)

    def test_dimensions_need_no_allocation(self):
        huge = [{"layer": "Linear", "in_features": 10**9, "out_features": 10**9}]
        assert spec_dimensions(huge) == (10**9, 10**9, (10**9 + 1) * 10**9)



class TestLayersKeepNoState:
    @staticmethod
    def build():
        rng = np.random.default_rng(5)
        return Sequential([Flatten(), Linear(8, 6, rng), ELU(), Linear(6, 4, rng), ReLU(),
                           Linear(4, 3, rng), Tanh()])

    def test_inference_computes_the_forward_bits(self):
        model = self.build()
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(7, 2, 4)), rng.integers(0, 3, size=7)
        logits = model.forward(x)
        np.testing.assert_array_equal(model.predict(x), np.argmax(logits, axis=-1))
        np.testing.assert_array_equal(model.predict_proba(x), softmax(logits))
        losses, _ = softmax_cross_entropy(logits, y)
        assert model.loss(x, y) == float(np.mean(losses))

    def test_capture_leaves_only_parameters_on_layers(self):
        model = self.build()
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(7, 2, 4)), rng.integers(0, 3, size=7)
        model.per_example_grad_factors(x, y)
        model.mean_gradient(x, y)
        model.predict(x)
        assert_layers_hold_only_parameters(model)
