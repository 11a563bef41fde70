"""Gradient-checked tests for GCN and dense layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.blocks import SampledBlock
from repro.baselines.sage_layers import BipartiteGCNLayer
from repro.kernels import accounting
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


#: reddit_wide's operating point: 326-vertex subgraphs, f = 602 into the
#: first layer, 2 x 512 into the second, 512 per branch.
WIDE_ROWS, WIDE_IN, WIDE_OUT = 326, (602, 1024), 512


@pytest.fixture(scope="module")
def wide_aggregator():
    from repro.graphs import DCSBMParams, dcsbm_graph

    params = DCSBMParams(
        num_vertices=WIDE_ROWS, num_blocks=4, avg_degree=10.0, exponent=2.5, mixing=0.2
    )
    graph, _ = dcsbm_graph(params, rng=np.random.default_rng(3))
    return MeanAggregator(graph)


def _wide_block(rng, num_src=600, fanout=5) -> SampledBlock:
    return SampledBlock(
        num_src=num_src,
        num_dst=WIDE_ROWS,
        indptr=np.arange(WIDE_ROWS + 1, dtype=np.int64) * fanout,
        neighbor_pos=rng.integers(0, num_src, WIDE_ROWS * fanout),
        self_pos=np.arange(WIDE_ROWS, dtype=np.int64),
    )


def _on_both_paths(gemm_pair_mode, step):
    """``step()``'s arrays with the pairs and products serial, then
    concurrent; and the pair products and row halves the concurrent run
    handed to the worker (``submitted`` and ``submitted.halves``)."""
    gemm_pair_mode(2)  # OpenBLAS on its own threads: everything serial
    serial = step()
    submitted = gemm_pair_mode(1)
    return serial, step(), submitted


def _assert_same_bits(serial: dict, paired: dict) -> None:
    assert serial.keys() == paired.keys()
    for name in serial:
        assert serial[name].dtype == paired[name].dtype, name
        assert np.array_equal(serial[name], paired[name]), name


@pytest.mark.usefixtures("blas_one_thread")
class TestPairedProducts:
    """At reddit_wide's shapes every pair of independent products runs
    on the worker thread, and every output and gradient keeps the bits
    of the serial ``ops.gemm`` calls."""

    @pytest.mark.parametrize("in_dim", WIDE_IN)
    def test_gcn_layer(self, gemm_pair_mode, wide_aggregator, in_dim):
        x = np.random.default_rng(1).standard_normal((WIDE_ROWS, in_dim))
        grad = np.random.default_rng(2).standard_normal((WIDE_ROWS, 2 * WIDE_OUT))

        def step():
            layer = GCNLayer(in_dim, WIDE_OUT, rng=np.random.default_rng(0))
            out = layer.forward(x, wide_aggregator)
            dx = layer.backward(grad)
            inference = layer.forward(x, wide_aggregator, train=False)
            return {"out": out, "dx": dx, "inference": inference, **layer.grads}

        serial, paired, submitted = _on_both_paths(gemm_pair_mode, step)
        _assert_same_bits(serial, paired)
        # forward (twice), weight gradients, input gradients
        assert len(submitted) == 4
        assert submitted.halves == []  # every wide product is in a pair

    def test_dense_layer(self, gemm_pair_mode):
        x = np.random.default_rng(1).standard_normal((WIDE_ROWS, 2 * WIDE_OUT))
        grad = np.random.default_rng(2).standard_normal((WIDE_ROWS, WIDE_OUT))

        def step():
            layer = DenseLayer(2 * WIDE_OUT, WIDE_OUT, rng=np.random.default_rng(0))
            out = layer.forward(x)
            return {"out": out, "dx": layer.backward(grad), **layer.grads}

        serial, paired, submitted = _on_both_paths(gemm_pair_mode, step)
        _assert_same_bits(serial, paired)
        assert submitted == [(2 * WIDE_OUT, WIDE_ROWS, WIDE_OUT)]  # dW beside dx
        # the forward's one product runs its row halves at once
        assert submitted.halves == [(WIDE_ROWS // 2, 2 * WIDE_OUT, WIDE_OUT)]

    @pytest.mark.parametrize("in_dim", WIDE_IN)
    def test_bipartite_gcn_layer(self, gemm_pair_mode, in_dim):
        block = _wide_block(np.random.default_rng(4))
        h = np.random.default_rng(1).standard_normal((block.num_src, in_dim))
        grad = np.random.default_rng(2).standard_normal((WIDE_ROWS, 2 * WIDE_OUT))

        def step():
            layer = BipartiteGCNLayer(in_dim, WIDE_OUT, rng=np.random.default_rng(0))
            out = layer.forward(h, block)
            return {"out": out, "dx": layer.backward(grad), **layer.grads}

        serial, paired, submitted = _on_both_paths(gemm_pair_mode, step)
        _assert_same_bits(serial, paired)
        assert len(submitted) == 3
        assert submitted.halves == []

    def test_training_iteration_meters_the_same(self, gemm_pair_mode, reddit_small):
        from repro.train.config import TrainConfig
        from repro.train.trainer import GraphSamplingTrainer, TrainResult

        cfg = TrainConfig(hidden_dims=(WIDE_OUT, WIDE_OUT), frontier_size=40, budget=326)

        def step():
            before = {k: (c.calls, c.flops) for k, c in accounting.PER_CLASS.items()}
            with GraphSamplingTrainer(reddit_small, cfg) as trainer:
                with accounting.capture() as seen:
                    trainer.train_iteration(0, TrainResult())
                params = {
                    f"{i}.{name}": value
                    for i, layer in enumerate([*trainer.model.layers, trainer.model.head])
                    for name, value in layer.params.items()
                }
            per_class = {
                k: (c.calls - before.get(k, (0, 0.0))[0], c.flops - before.get(k, (0, 0.0))[1])
                for k, c in accounting.PER_CLASS.items()
            }
            counts = (seen.gemm_calls, seen.gemm_flops, seen.spmm_calls, seen.spmm_flops)
            return params, {k: v for k, v in per_class.items() if v[0]}, counts

        (serial, serial_classes, serial_counts), (paired, paired_classes, paired_counts), submitted = (
            _on_both_paths(gemm_pair_mode, step)
        )
        _assert_same_bits(serial, paired)
        assert paired_classes == serial_classes
        assert paired_counts == serial_counts
        assert submitted


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
