"""Tests for the full GCN network: shapes, gradients, state dict."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.gradcheck import max_relative_error, numerical_gradient
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.network import GCN
from repro.propagation.spmm import MeanAggregator


@pytest.fixture
def net_setup(rng):
    # Min degree >= 4 keeps aggregated rows away from exact-zero ReLU
    # pre-activations (see tests/nn/test_layers.py::small_setup).
    from repro.graphs.generators import ring_of_cliques

    sub = ring_of_cliques(10, 5)
    agg = MeanAggregator(sub)
    x = rng.standard_normal((sub.num_vertices, 5))
    y = rng.integers(0, 3, size=sub.num_vertices)
    return agg, x, y


class TestForward:
    def test_logit_shape(self, net_setup):
        agg, x, _ = net_setup
        model = GCN(5, [4, 4], 3, seed=0)
        assert model.forward(x, agg).shape == (x.shape[0], 3)

    def test_layer_count(self):
        model = GCN(5, [4, 4, 4], 3, seed=0)
        assert model.num_layers == 3

    def test_needs_layers(self):
        with pytest.raises(ValueError):
            GCN(5, [], 3)

    def test_deterministic_given_seed(self, net_setup):
        agg, x, _ = net_setup
        a = GCN(5, [4], 3, seed=42).forward(x, agg, train=False)
        b = GCN(5, [4], 3, seed=42).forward(x, agg, train=False)
        assert np.array_equal(a, b)

    def test_num_parameters(self):
        model = GCN(5, [4], 3, seed=0)
        # layer: W_self 5x4, W_neigh 5x4, b x2 (4 each); head: 8x3 + 3
        assert model.num_parameters() == 2 * 20 + 8 + 24 + 3

    def test_embeddings_shape(self, net_setup):
        agg, x, _ = net_setup
        model = GCN(5, [4, 6], 3, seed=0)
        emb = model.embeddings(x, agg)
        assert emb.shape == (x.shape[0], 12)  # concat doubles


class TestBackward:
    def test_end_to_end_gradcheck(self, net_setup):
        """Whole-network gradients vs central differences.

        The hidden layers use ReLU, whose kinks central differences cannot
        resolve, so the criterion is distributional: >= 90% of sampled
        entries within tolerance and a tiny median error.
        """
        agg, x, y = net_setup
        model = GCN(5, [4, 3], 3, seed=1)
        loss = SoftmaxCrossEntropy()

        def f():
            return loss.forward(model.forward(x, agg, train=False), y)

        logits = model.forward(x, agg, train=True)
        model.backward(loss.backward(logits, y))

        rng = np.random.default_rng(0)
        errs = []
        for params, grads in model.parameter_groups():
            for name, p in params.items():
                idx, numeric = numerical_gradient(f, p, sample=6, rng=rng)
                analytic = grads[name].reshape(-1)[idx]
                errs.extend(
                    max_relative_error(np.array([a]), np.array([n]))
                    for a, n in zip(analytic, numeric)
                )
        errs = np.array(errs)
        assert np.mean(errs < 1e-4) >= 0.9
        assert np.median(errs) < 1e-5

    def test_input_gradient_flows(self, net_setup):
        agg, x, y = net_setup
        model = GCN(5, [4], 3, seed=2)
        loss = SoftmaxCrossEntropy()
        logits = model.forward(x, agg, train=True)
        grad_logits = loss.backward(logits, y)
        # Nothing trains the input features: the model stops at the first
        # layer's parameters. The layer still yields the input gradient.
        assert model.backward(grad_logits) is None
        dx = model.layers[0].backward(
            model.head.backward(grad_logits), input_grad=True
        )
        assert dx.shape == x.shape
        assert np.any(dx != 0)

    def test_dropout_train_vs_eval(self, net_setup):
        agg, x, _ = net_setup
        model = GCN(5, [4], 3, dropout=0.5, seed=3)
        out_train_1 = model.forward(x, agg, train=True)
        out_train_2 = model.forward(x, agg, train=True)
        out_eval_1 = model.forward(x, agg, train=False)
        out_eval_2 = model.forward(x, agg, train=False)
        assert not np.array_equal(out_train_1, out_train_2)  # random masks
        assert np.array_equal(out_eval_1, out_eval_2)  # deterministic


class TestStateDict:
    def test_roundtrip(self, net_setup):
        agg, x, _ = net_setup
        model = GCN(5, [4, 4], 3, seed=4)
        state = model.state_dict()
        other = GCN(5, [4, 4], 3, seed=99)
        assert not np.allclose(
            other.forward(x, agg, train=False), model.forward(x, agg, train=False)
        )
        other.load_state_dict(state)
        assert np.allclose(
            other.forward(x, agg, train=False), model.forward(x, agg, train=False)
        )

    def test_state_dict_is_copy(self):
        model = GCN(5, [4], 3, seed=5)
        state = model.state_dict()
        state["head.W"][...] = 0.0
        assert not np.allclose(model.head.params["W"], 0.0)
