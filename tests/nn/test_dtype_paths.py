"""Dtype discipline on the nn hot path: no silent float64 promotion.

The float32 fast path is only fast if every stage preserves float32;
these tests pin the stages that used to promote (the dropout mask was the
silent offender) and the bit-level guarantee the reference path keeps.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.layers import Dropout
from repro.nn.loss import SigmoidCrossEntropy, SoftmaxCrossEntropy
from repro.nn.network import GCN
from repro.propagation.spmm import MeanAggregator


class TestDropoutDtype:
    def test_float32_stays_float32(self):
        drop = Dropout(0.4, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((8, 5)).astype(np.float32)
        out = drop.forward(x, train=True)
        assert out.dtype == np.float32
        assert drop._mask is not None and drop._mask.dtype == np.float32
        assert drop.backward(out).dtype == np.float32

    def test_float64_mask_values_unchanged(self):
        # Same rng stream and same mask values as the seed implementation:
        # keep-mask from rng.random, scaled by 1/keep.
        seed, rate = 3, 0.3
        drop = Dropout(rate, rng=np.random.default_rng(seed))
        x = np.ones((6, 4))
        out = drop.forward(x, train=True)
        keep = 1.0 - rate
        expected_mask = (
            np.random.default_rng(seed).random((6, 4)) < keep
        ).astype(np.float64) / keep
        np.testing.assert_array_equal(drop._mask, expected_mask)
        np.testing.assert_array_equal(out, x * expected_mask)

    def test_non_float_input_promotes_to_float64(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        out = drop.forward(np.ones((4, 4), dtype=np.int64), train=True)
        assert out.dtype == np.float64

    def test_eval_and_zero_rate_are_identity(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.random.default_rng(2).standard_normal((3, 3)).astype(np.float32)
        assert drop.forward(x, train=False) is x
        assert Dropout(0.0, rng=np.random.default_rng(0)).forward(x) is x


class TestActivationAndLossDtype:
    def test_sigmoid_preserves_float32(self):
        x = np.linspace(-4, 4, 12, dtype=np.float32).reshape(3, 4)
        assert sigmoid(x).dtype == np.float32
        assert sigmoid(x.astype(np.float64)).dtype == np.float64

    def test_sigmoid_ce_float32_roundtrip(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((10, 4)).astype(np.float32)
        labels = (rng.random((10, 4)) < 0.5).astype(np.float64)
        loss = SigmoidCrossEntropy()
        value = loss.forward(logits, labels)
        assert np.isfinite(value)
        grad = loss.backward(logits, labels)
        assert grad.dtype == np.float32

    def test_softmax_ce_float32_roundtrip(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((10, 4)).astype(np.float32)
        labels = rng.integers(0, 4, size=10)
        loss = SoftmaxCrossEntropy()
        assert np.isfinite(loss.forward(logits, labels))
        assert loss.backward(logits, labels).dtype == np.float32


class TestNetworkDtype:
    def test_float32_network_end_to_end(self, triangle_graph):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        model = GCN(6, [4], 2, dropout=0.25, seed=0, dtype=np.float32)
        agg = MeanAggregator(triangle_graph)
        logits = model.forward(x, agg, train=True)
        assert logits.dtype == np.float32
        grad = np.ones_like(logits)
        assert model.backward(grad) is None
        # The model stops at the first layer's parameters; the layer
        # itself still yields the input gradient, in float32.
        d_in = model.layers[0].backward(
            model.head.backward(grad), input_grad=True
        )
        assert d_in.dtype == np.float32
        for params, grads in model.parameter_groups():
            assert all(p.dtype == np.float32 for p in params.values())
            assert all(g.dtype == np.float32 for g in grads.values())

    def test_float32_weights_are_rounded_reference_weights(self):
        ref = GCN(6, [4], 2, seed=0)
        fast = GCN(6, [4], 2, seed=0, dtype=np.float32)
        for (rp, _), (fp, _) in zip(
            ref.parameter_groups(), fast.parameter_groups()
        ):
            for k in rp:
                np.testing.assert_array_equal(
                    fp[k], rp[k].astype(np.float32), err_msg=k
                )
