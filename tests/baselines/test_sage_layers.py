"""Gradient-checked tests for bipartite baseline layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.blocks import SampledBlock
from repro.baselines.sage_layers import BipartiteGCNLayer, ConvOnlyLayer
from repro.nn.gradcheck import check_gradients, max_relative_error, numerical_gradient


@pytest.fixture
def block(rng):
    """Dense-ish random bipartite block: 12 dst over 20 src, fanout 3."""
    num_src, num_dst, fanout = 20, 12, 3
    nbr = rng.integers(0, num_src, size=num_dst * fanout)
    return SampledBlock(
        num_src=num_src,
        num_dst=num_dst,
        indptr=np.arange(0, num_dst * fanout + 1, fanout, dtype=np.int64),
        neighbor_pos=nbr.astype(np.int64),
        self_pos=rng.choice(num_src, size=num_dst, replace=False).astype(np.int64),
    )


class TestBipartiteGCNLayer:
    def test_output_shape(self, block, rng):
        layer = BipartiteGCNLayer(6, 4, rng=rng)
        h = rng.standard_normal((20, 6))
        assert layer.forward(h, block).shape == (12, 8)

    def test_gradients_identity_activation(self, block, rng):
        layer = BipartiteGCNLayer(6, 3, activation="identity", rng=rng)
        h = rng.standard_normal((20, 6))
        target = rng.standard_normal((12, 6))

        def loss():
            return float(0.5 * np.sum(layer.forward(h, block, train=False) ** 2))

        out = layer.forward(h, block, train=True)
        dh = layer.backward(out)
        check_gradients(loss, layer.params, layer.grads, sample=8, tol=1e-4)
        idx, numeric = numerical_gradient(loss, h, sample=10, rng=rng)
        assert max_relative_error(dh.reshape(-1)[idx], numeric) < 1e-4

    def test_backward_without_forward(self, rng):
        layer = BipartiteGCNLayer(3, 2, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((5, 4)))

    def test_invalid_activation(self, rng):
        with pytest.raises(ValueError):
            BipartiteGCNLayer(3, 2, activation="gelu", rng=rng)


class TestConvOnlyLayer:
    def test_output_shape(self, block, rng):
        layer = ConvOnlyLayer(6, 4, rng=rng)
        h = rng.standard_normal((20, 6))
        assert layer.forward(h, block).shape == (12, 4)

    def test_gradients_identity_activation(self, block, rng):
        layer = ConvOnlyLayer(6, 3, activation="identity", rng=rng)
        h = rng.standard_normal((20, 6))

        def loss():
            return float(0.5 * np.sum(layer.forward(h, block, train=False) ** 2))

        out = layer.forward(h, block, train=True)
        dh = layer.backward(out)
        check_gradients(loss, layer.params, layer.grads, sample=8, tol=1e-4)
        idx, numeric = numerical_gradient(loss, h, sample=10, rng=rng)
        assert max_relative_error(dh.reshape(-1)[idx], numeric) < 1e-4

    def test_second_backward_overwrites(self, block, rng):
        # Gradients are written, not accumulated (no zero_grad); without a
        # consumer the source-support gradient is not computed at all.
        layer = ConvOnlyLayer(6, 3, rng=rng)
        h = rng.standard_normal((20, 6))
        out = layer.forward(h, block)
        layer.backward(np.ones_like(out))
        g1 = {k: v.copy() for k, v in layer.grads.items()}
        assert layer.backward(np.ones_like(out), input_grad=False) is None
        for name, g in layer.grads.items():
            assert np.array_equal(g, g1[name]), name
