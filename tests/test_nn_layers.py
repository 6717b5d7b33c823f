"""Unit tests for the dense-layer substrate (repro.nn.layers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, BCEWithLogitsLoss, Identity, Linear, ReLU, Sigmoid, sigmoid


def numerical_gradient(f, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = f()
        flat[i] = original - eps
        minus = f()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.ones((4, 5)))
        assert out.shape == (4, 3)

    def test_forward_matches_matmul(self):
        rng = np.random.default_rng(1)
        layer = Linear(4, 2, rng=rng)
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_rejects_bad_input_width(self):
        layer = Linear(4, 2)
        with pytest.raises(ValueError):
            layer.forward(np.ones((3, 5)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Linear(2, 2).backward(np.ones((1, 2)))

    def test_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((5, 3))

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        layer.zero_grad()
        out = layer.forward(x)
        layer.backward(2.0 * out)
        numeric = numerical_gradient(loss, layer.weight)
        np.testing.assert_allclose(layer.grad_weight, numeric, rtol=1e-4, atol=1e-6)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        out = layer.forward(x)
        grad_in = layer.backward(2.0 * out)
        numeric = numerical_gradient(loss, x)
        np.testing.assert_allclose(grad_in, numeric, rtol=1e-4, atol=1e-6)

    def test_flops_and_parameters(self):
        layer = Linear(13, 64)
        assert layer.flops_per_sample() == 2 * 13 * 64
        assert layer.num_parameters() == 13 * 64 + 64


class TestActivations:
    def test_relu_forward_and_backward(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.5], [2.0, -3.0]])
        out = relu.forward(x)
        np.testing.assert_allclose(out, [[0.0, 0.5], [2.0, 0.0]])
        grad = relu.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_sigmoid_range_and_stability(self):
        sig = Sigmoid()
        x = np.array([[-1000.0, 0.0, 1000.0]])
        out = sig.forward(x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert not np.any(np.isnan(out))
        np.testing.assert_allclose(out[0, 1], 0.5)

    def test_sigmoid_of_integers_is_float(self):
        # Regression: an integer input once produced an integer (all-zero) output.
        out = Sigmoid().forward(np.array([[-3, 0, 2]]))
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-np.array([[-3.0, 0.0, 2.0]]))))

    @given(st.lists(st.floats(min_value=-800, max_value=800), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_one_sigmoid_behind_layer_and_loss(self, values):
        x = np.array(values)
        expected = sigmoid(x)
        np.testing.assert_array_equal(Sigmoid().forward(x), expected)
        loss = BCEWithLogitsLoss()
        loss.forward(x, np.zeros_like(x))
        np.testing.assert_array_equal(loss.backward().reshape(-1), expected / x.size)

    def test_sigmoid_gradient(self):
        sig = Sigmoid()
        x = np.array([[0.3, -0.7]])
        out = sig.forward(x)
        grad = sig.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out * (1 - out))

    def test_identity_passthrough(self):
        layer = Identity()
        x = np.array([[1.0, -2.0]])
        np.testing.assert_allclose(layer.forward(x), x)
        np.testing.assert_allclose(layer.backward(x), x)


class TestMLP:
    def test_layer_structure(self):
        mlp = MLP([13, 64, 4])
        assert mlp.in_features == 13
        assert mlp.out_features == 4
        assert mlp.flops_per_sample() == 2 * (13 * 64 + 64 * 4)

    def test_forward_shape(self):
        mlp = MLP([8, 16, 2], rng=np.random.default_rng(0))
        assert mlp.forward(np.ones((5, 8))).shape == (5, 2)

    def test_requires_two_widths(self):
        with pytest.raises(ValueError):
            MLP([5])

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            MLP([2, 2], final_activation="tanh")

    def test_gradient_flow_reduces_loss(self):
        rng = np.random.default_rng(4)
        mlp = MLP([4, 8, 1], rng=rng, final_activation="none")
        x = rng.standard_normal((32, 4))
        y = (x.sum(axis=1, keepdims=True) > 0).astype(float)
        losses = []
        for _ in range(50):
            mlp.zero_grad()
            out = mlp.forward(x)
            losses.append(float(np.mean((out - y) ** 2)))
            mlp.backward(2.0 * (out - y) / len(x))
            for p, g in zip(mlp.parameters(), mlp.gradients()):
                p -= 0.1 * g
        assert losses[-1] < losses[0] * 0.5

    @given(
        batch=st.integers(min_value=1, max_value=16),
        width=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=20, deadline=None)
    def test_forward_output_finite(self, batch, width):
        mlp = MLP([width, 8, 1], rng=np.random.default_rng(0))
        out = mlp.forward(np.random.default_rng(1).standard_normal((batch, width)))
        assert out.shape == (batch, 1)
        assert np.all(np.isfinite(out))
