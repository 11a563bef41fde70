"""Gradient-checked tests for GCN and dense layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.gradcheck import check_gradients, max_relative_error, numerical_gradient
from repro.nn.layers import DenseLayer, Dropout, GCNLayer
from repro.propagation.spmm import MeanAggregator


@pytest.fixture
def small_setup(rng):
    # Every vertex has degree >= 4, so no aggregated row is exactly zero
    # and ReLU gradchecks are not systematically pinned at the kink (a
    # zero-degree vertex's pre-activation equals its bias exactly).
    from repro.graphs.generators import ring_of_cliques

    sub = ring_of_cliques(8, 5)
    agg = MeanAggregator(sub)
    x = rng.standard_normal((sub.num_vertices, 6))
    return sub, agg, x


class TestGCNLayerForward:
    def test_output_dims_concat(self, small_setup, rng):
        _, agg, x = small_setup
        layer = GCNLayer(6, 4, rng=rng)
        out = layer.forward(x, agg)
        assert out.shape == (x.shape[0], 8)
        assert layer.output_dim == 8

    def test_relu_nonnegative(self, small_setup, rng):
        _, agg, x = small_setup
        layer = GCNLayer(6, 4, rng=rng)
        assert np.all(layer.forward(x, agg) >= 0)

    def test_identity_activation(self, small_setup, rng):
        _, agg, x = small_setup
        layer = GCNLayer(6, 4, activation="identity", rng=rng)
        out = layer.forward(x, agg)
        # Must match the manual computation exactly.
        expected = np.concatenate(
            [
                agg.forward(x) @ layer.params["W_neigh"] + layer.params["b_neigh"],
                x @ layer.params["W_self"] + layer.params["b_self"],
            ],
            axis=1,
        )
        assert np.allclose(out, expected)

    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("again", [False, True])
    def test_one_buffer_forward_keeps_the_seed_bits(self, small_setup, rng, again, train):
        # The allocate-per-product forward this layer used to run, written
        # out: the one-buffer path must not move a bit — and with `again`,
        # a later forward on other input must leave the first output alone.
        _, agg, x = small_setup
        layer = GCNLayer(6, 4, rng=rng)
        for name in ("b_neigh", "b_self"):
            layer.params[name][...] = rng.standard_normal(4)
        p = layer.params
        z_neigh, z_self = agg.forward(x) @ p["W_neigh"], x @ p["W_self"]
        z = np.concatenate([z_neigh + p["b_neigh"], z_self + p["b_self"]], axis=1)
        out = layer.forward(x, agg, train=train)
        if again:
            assert not np.shares_memory(layer.forward(-x, agg, train=train), out)
        assert np.array_equal(out, np.maximum(z, 0.0))
        assert np.array_equal(
            layer.forward(x, agg, train=train, h_agg=agg.forward(x)), out
        )

    def test_invalid_activation(self, rng):
        with pytest.raises(ValueError):
            GCNLayer(3, 2, activation="tanh", rng=rng)

    def test_backward_without_forward_raises(self, rng):
        layer = GCNLayer(3, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((5, 4)))

    def test_eval_mode_no_cache(self, small_setup, rng):
        _, agg, x = small_setup
        layer = GCNLayer(6, 4, rng=rng)
        layer.forward(x, agg, train=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((x.shape[0], 8)))


class TestGCNLayerGradients:
    def test_parameter_gradients_exact(self, small_setup):
        """Identity activation: the analytic gradient is exact everywhere."""
        _, agg, x = small_setup
        rng = np.random.default_rng(0)
        layer = GCNLayer(6, 3, activation="identity", rng=rng)
        target = rng.standard_normal((x.shape[0], layer.output_dim))

        def loss():
            out = layer.forward(x, agg, train=False)
            return float(0.5 * np.sum((out - target) ** 2))

        out = layer.forward(x, agg, train=True)
        layer.backward(out - target)
        check_gradients(loss, layer.params, layer.grads, sample=10, tol=1e-4)

    def test_parameter_gradients_relu_mostly_exact(self, small_setup):
        """ReLU path: gradients match numerically except at kink crossings
        (pre-activations within eps of zero), which central differences
        cannot resolve — so require 90% of sampled entries to agree."""
        _, agg, x = small_setup
        rng = np.random.default_rng(0)
        layer = GCNLayer(6, 3, rng=rng)
        target = rng.standard_normal((x.shape[0], layer.output_dim))

        def loss():
            out = layer.forward(x, agg, train=False)
            return float(0.5 * np.sum((out - target) ** 2))

        out = layer.forward(x, agg, train=True)
        layer.backward(out - target)
        errs = []
        from repro.nn.gradcheck import max_relative_error as mre

        for name, p in layer.params.items():
            idx, numeric = numerical_gradient(loss, p, sample=10, rng=rng)
            analytic = layer.grads[name].reshape(-1)[idx]
            errs.extend(
                mre(np.array([a]), np.array([n])) for a, n in zip(analytic, numeric)
            )
        errs = np.array(errs)
        assert np.mean(errs < 1e-4) >= 0.9
        assert np.median(errs) < 1e-5

    def test_input_gradient(self, small_setup):
        _, agg, x = small_setup
        rng = np.random.default_rng(1)
        layer = GCNLayer(6, 3, rng=rng)
        target = rng.standard_normal((x.shape[0], 6))

        x_var = x.copy()

        def loss():
            out = layer.forward(x_var, agg, train=False)
            return float(0.5 * np.sum(out**2))

        out = layer.forward(x_var, agg, train=True)
        dx = layer.backward(out)
        idx, numeric = numerical_gradient(
            loss, x_var, sample=15, rng=np.random.default_rng(2)
        )
        assert max_relative_error(dx.reshape(-1)[idx], numeric) < 1e-4

    def test_second_backward_overwrites(self, small_setup):
        # Gradients are written, not accumulated: there is no zero_grad,
        # and backpropagating twice leaves the second result.
        _, agg, x = small_setup
        rng = np.random.default_rng(3)
        layer = GCNLayer(6, 3, rng=rng)
        out = layer.forward(x, agg)
        layer.backward(np.ones_like(out))
        g1 = {k: v.copy() for k, v in layer.grads.items()}
        layer.backward(np.ones_like(out))
        for name, g in layer.grads.items():
            assert np.array_equal(g, g1[name]), name
        layer.backward(2 * np.ones_like(out))
        assert np.allclose(layer.grads["W_neigh"], 2 * g1["W_neigh"])
        assert np.allclose(layer.grads["b_self"], 2 * g1["b_self"])

    def test_no_input_gradient_when_unconsumed(self, small_setup):
        _, agg, x = small_setup
        layer = GCNLayer(6, 3, rng=np.random.default_rng(4))
        out = layer.forward(x, agg)
        layer.backward(np.ones_like(out))
        full = {k: v.copy() for k, v in layer.grads.items()}
        assert layer.backward(np.ones_like(out), input_grad=False) is None
        for name, g in layer.grads.items():
            assert np.array_equal(g, full[name]), name


class TestDenseLayer:
    def test_forward_values(self, rng):
        layer = DenseLayer(3, 2, rng=rng)
        x = rng.standard_normal((5, 3))
        out = layer.forward(x)
        assert np.allclose(out, x @ layer.params["W"] + layer.params["b"])

    def test_gradients(self, rng):
        layer = DenseLayer(4, 3, activation="relu", rng=rng)
        x = rng.standard_normal((7, 4))

        def loss():
            return float(np.sum(layer.forward(x, train=False) ** 2))

        out = layer.forward(x, train=True)
        dx = layer.backward(2 * out)
        check_gradients(loss, layer.params, layer.grads, sample=8, tol=1e-4)
        idx, numeric = numerical_gradient(loss, x, sample=8, rng=rng)
        assert max_relative_error(dx.reshape(-1)[idx], numeric) < 1e-4


class TestDropout:
    def test_eval_mode_identity(self, rng):
        d = Dropout(0.5, rng=rng)
        x = rng.standard_normal((10, 4))
        assert np.array_equal(d.forward(x, train=False), x)

    def test_zero_rate_identity(self, rng):
        d = Dropout(0.0, rng=rng)
        x = rng.standard_normal((10, 4))
        assert np.array_equal(d.forward(x, train=True), x)

    def test_scaling_preserves_expectation(self):
        d = Dropout(0.3, rng=np.random.default_rng(0))
        x = np.ones((2000, 50))
        out = d.forward(x, train=True)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self):
        d = Dropout(0.5, rng=np.random.default_rng(1))
        x = np.ones((50, 10))
        out = d.forward(x, train=True)
        g = d.backward(np.ones_like(x))
        assert np.array_equal(g == 0, out == 0)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng=rng)
        with pytest.raises(ValueError):
            Dropout(-0.1, rng=rng)
