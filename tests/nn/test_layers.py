"""Unit tests for the feed-forward layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import ELU, Flatten, Layer, Linear, ReLU, Tanh


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(5, 3, rng)
        x = rng.normal(size=(4, 5))
        assert layer.forward(x).shape == (4, 3)

    def test_forward_matches_matmul(self, rng):
        layer = Linear(4, 2, rng)
        x = rng.normal(size=(3, 4))
        expected = x @ layer.weight + layer.bias
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_rejects_wrong_input_width(self, rng):
        layer = Linear(4, 2, rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(3, 5)))

    def test_rejects_non_2d_input(self, rng):
        layer = Linear(4, 2, rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(3, 4, 1)))

    def test_num_parameters(self, rng):
        layer = Linear(5, 3, rng)
        assert layer.num_parameters == 5 * 3 + 3

    def test_backward_input_gradient_shape(self, rng):
        layer = Linear(4, 2, rng)
        x = rng.normal(size=(3, 4))
        grad_input = layer.backward(rng.normal(size=(3, 2)), x, layer.forward(x))
        assert grad_input.shape == (3, 4)

    def test_input_gradient_value(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(2, 3))
        grad_out = rng.normal(size=(2, 2))
        grad_in = layer.backward(grad_out, x, layer.forward(x))
        np.testing.assert_allclose(grad_in, grad_out @ layer.weight.T)

    def test_set_parameters_roundtrip(self, rng):
        layer = Linear(3, 2, rng)
        new_weight = rng.normal(size=(3, 2))
        new_bias = rng.normal(size=(2,))
        layer.set_parameters([new_weight, new_bias])
        np.testing.assert_allclose(layer.weight, new_weight)
        np.testing.assert_allclose(layer.bias, new_bias)

    def test_set_parameters_shape_mismatch(self, rng):
        layer = Linear(3, 2, rng)
        with pytest.raises(ValueError):
            layer.set_parameters([np.zeros((2, 3)), np.zeros(2)])

    def test_set_parameters_wrong_count(self, rng):
        layer = Linear(3, 2, rng)
        with pytest.raises(ValueError):
            layer.set_parameters([np.zeros((3, 2))])


class TestActivations:
    @pytest.mark.parametrize("activation_cls", [ReLU, ELU, Tanh])
    def test_no_parameters(self, activation_cls):
        assert activation_cls().num_parameters == 0

    @pytest.mark.parametrize("activation_cls", [ReLU, ELU, Tanh])
    def test_preserves_shape(self, activation_cls, rng):
        layer = activation_cls()
        x = rng.normal(size=(5, 7))
        assert layer.forward(x).shape == x.shape

    def test_relu_clamps_negative(self, rng):
        layer = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_allclose(layer.forward(x), [[0.0, 0.0, 2.0]])

    def test_relu_gradient_mask(self):
        layer = ReLU()
        x = np.array([[-1.0, 0.5, 2.0]])
        grad = layer.backward(np.ones_like(x), x, layer.forward(x))
        np.testing.assert_allclose(grad, [[0.0, 1.0, 1.0]])

    def test_elu_positive_is_identity(self):
        layer = ELU()
        x = np.array([[0.5, 2.0]])
        np.testing.assert_allclose(layer.forward(x), x)

    def test_elu_negative_saturates_at_minus_alpha(self):
        layer = ELU(alpha=1.5)
        out = layer.forward(np.array([[-50.0]]))
        assert out[0, 0] == pytest.approx(-1.5, abs=1e-6)

    def test_elu_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            ELU(alpha=0.0)

    def test_elu_gradient_continuous_at_zero(self):
        layer = ELU()
        x = np.array([[1e-9, -1e-9]])
        grad = layer.backward(np.ones_like(x), x, layer.forward(x))
        np.testing.assert_allclose(grad, [[1.0, 1.0]], atol=1e-6)

    def test_tanh_output_range(self, rng):
        layer = Tanh()
        out = layer.forward(rng.normal(scale=10.0, size=(10, 10)))
        assert np.all(out <= 1.0) and np.all(out >= -1.0)

    def test_tanh_gradient_value(self):
        layer = Tanh()
        x = np.array([[0.3]])
        out = layer.forward(x)
        grad = layer.backward(np.ones_like(x), x, out)
        np.testing.assert_allclose(grad, 1.0 - out**2)

    @pytest.mark.parametrize("activation_cls", [ReLU, ELU, Tanh])
    def test_numerical_gradient(self, activation_cls, rng):
        """Finite-difference check of each activation's derivative."""
        layer = activation_cls()
        x = rng.normal(size=(3, 4))
        step = 1e-6
        analytic = layer.backward(np.ones_like(x), x, layer.forward(x))
        numeric = (layer.forward(x + step) - layer.forward(x - step)) / (2.0 * step)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)


class TestFlatten:
    def test_flattens_trailing_dims(self, rng):
        layer = Flatten()
        x = rng.normal(size=(4, 3, 2))
        assert layer.forward(x).shape == (4, 6)

    def test_backward_restores_shape(self, rng):
        layer = Flatten()
        x = rng.normal(size=(4, 3, 2))
        out = layer.forward(x)
        assert layer.backward(out, x, out).shape == x.shape

    def test_roundtrip_preserves_values(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 3, 5))
        out = layer.forward(x)
        np.testing.assert_allclose(layer.backward(out, x, out), x)


class TestLayerBase:
    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Layer().forward(np.zeros((1, 1)))

    def test_backward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Layer().backward(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_base_layer_has_no_parameters(self):
        assert Layer().num_parameters == 0

