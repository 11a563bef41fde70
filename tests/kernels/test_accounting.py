"""Centralized cost accounting: capture scopes, obs fan-out, and agreement
with the analytic complexity model (Eq. 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.analysis.complexity import eq1_forward_ops
from repro.kernels import accounting
from repro.kernels import ops as kernel_ops
from repro.kernels.accounting import ShapeClass
from repro.nn.network import GCN
from repro.propagation.spmm import MeanAggregator


class TestShapeClass:
    def test_nearby_sizes_share_a_bucket(self):
        a = ShapeClass.for_gemm(1000, 16, 64, np.float32)
        b = ShapeClass.for_gemm(1024, 16, 64, np.float32)
        c = ShapeClass.for_gemm(1025, 16, 64, np.float32)
        assert a.key == b.key
        assert a.key != c.key

    def test_key_carries_dtype_and_variant(self):
        sc = ShapeClass.for_gemm(100, 8, 8, np.float32)
        assert sc.key == "gemm[7.3.3|float32|alloc]"
        assert (
            ShapeClass.for_gemm(100, 8, 8, np.float64, variant="out").key
            == "gemm[7.3.3|float64|out]"
        )

    def test_spmm_density_decade(self):
        sparse = ShapeClass.for_spmm(1000, 5_000, 64, np.float32)
        dense = ShapeClass.for_spmm(1000, 500_000, 64, np.float32)
        assert sparse.buckets[-1] != dense.buckets[-1]
        assert sparse.op == "spmm"


class TestCaptureScopes:
    def test_capture_counts_flops_and_calls(self, rng):
        a = rng.standard_normal((10, 6))
        b = rng.standard_normal((6, 4))
        with accounting.capture() as counters:
            kernel_ops.gemm(a, b)
        assert counters.gemm_calls == 1
        assert counters.gemm_flops == accounting.gemm_flop_count(10, 6, 4)
        assert counters.spmm_calls == 0
        assert counters.gemm_seconds >= 0.0

    def test_spmm_counts(self, triangle_graph, rng):
        x = rng.standard_normal((3, 5))
        with accounting.capture() as counters:
            kernel_ops.spmm(triangle_graph, x)
        assert counters.spmm_calls == 1
        assert counters.spmm_flops == accounting.spmm_flop_count(
            triangle_graph.num_edges_directed, 5
        )

    def test_captures_nest_without_stealing(self, rng):
        a = rng.standard_normal((4, 4))
        with accounting.capture() as outer:
            kernel_ops.gemm(a, a)
            with accounting.capture() as inner:
                kernel_ops.gemm(a, a)
        assert inner.gemm_calls == 1
        assert outer.gemm_calls == 2

    def test_totals_accumulate_and_reset(self, rng):
        a = rng.standard_normal((3, 3))
        before = accounting.TOTALS.gemm_calls
        kernel_ops.gemm(a, a)
        assert accounting.TOTALS.gemm_calls == before + 1
        accounting.reset_totals()
        assert accounting.TOTALS.gemm_calls == 0
        assert accounting.TOTALS.total_flops == 0.0

    def test_snapshot_is_json_ready(self, rng):
        with accounting.capture() as counters:
            kernel_ops.gemm(np.eye(2), np.eye(2))
        snap = counters.snapshot()
        assert set(snap) == {
            "gemm_calls",
            "gemm_flops",
            "gemm_seconds",
            "spmm_calls",
            "spmm_flops",
            "spmm_seconds",
        }
        assert snap["gemm_flops"] == 2.0 * 2 * 2 * 2


class TestObsFanOut:
    def test_counters_emitted_when_enabled(self, triangle_graph, rng):
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((3, 2))
        x = rng.standard_normal((3, 4))
        obs.reset()
        with obs.enabled():
            kernel_ops.gemm(a, b)
            kernel_ops.spmm(triangle_graph, x)
        counters = obs.metrics.snapshot()["counters"]
        obs.reset()
        assert counters["gemm.ops"] == 1.0
        assert counters["gemm.flops"] == accounting.gemm_flop_count(5, 3, 2)
        assert counters["spmm.ops"] == 1.0
        assert counters["spmm.flops"] == accounting.spmm_flop_count(
            triangle_graph.num_edges_directed, 4
        )

    def test_silent_when_disabled(self, rng):
        obs.reset()
        kernel_ops.gemm(np.eye(3), np.eye(3))
        assert obs.metrics.snapshot()["counters"] == {}


class TestMatchesComplexityModel:
    """Metered flops == 2x (mul+add) the Eq. 1 operation count."""

    @pytest.fixture()
    def setup(self, medium_graph, rng):
        n = medium_graph.num_vertices
        f0, hidden, classes = 12, 8, 5
        features = rng.standard_normal((n, f0))
        model = GCN(f0, [hidden, hidden], classes, seed=3)
        agg = MeanAggregator(medium_graph)
        return medium_graph, features, model, agg

    def _eq1_args(self, graph, model, f0):
        nnz = graph.num_edges_directed
        n = graph.num_vertices
        dims = [f0]
        for layer in model.layers:
            dims.append(layer.output_dim)
        dims.append(model.head.out_dim)
        # GCN layers aggregate; the dense head does not.
        edge_counts = [nnz] * len(model.layers) + [0]
        node_counts = [n] * (len(dims))
        return edge_counts, node_counts, dims

    def test_forward_flops_match_eq1(self, setup):
        graph, features, model, agg = setup
        edge_counts, node_counts, dims = self._eq1_args(
            graph, model, features.shape[1]
        )
        with accounting.capture() as counters:
            model.forward(features, agg, train=False)
        analytic = eq1_forward_ops(edge_counts, node_counts, dims)
        # Eq. 1 counts one operation per MAC; the meter counts 2 flops.
        assert counters.total_flops == 2.0 * analytic
        # The split is exact too: agg term -> spmm, weight term -> gemm.
        agg_ops = sum(e * f for e, f in zip(edge_counts, dims[:-1]))
        assert counters.spmm_flops == 2.0 * agg_ops
        assert counters.gemm_flops == 2.0 * (analytic - agg_ops)

    def test_backward_gemm_flops_are_twice_forward(self, setup, rng):
        # dW = h^T dz and dx = dz W^T per product: backward costs 2x the
        # forward gemm flops — except at the first layer, whose input
        # gradient nobody consumes: its two dx products (each as big as
        # the matching forward product) are not run.
        graph, features, model, agg = setup
        with accounting.capture() as fwd:
            out = model.forward(features, agg, train=True)
        grad = rng.standard_normal(out.shape)
        with accounting.capture() as bwd:
            model.backward(grad)
        first = model.layers[0]
        first_layer_dx = 2 * 2.0 * graph.num_vertices * first.in_dim * first.out_dim
        assert bwd.gemm_flops == 2.0 * fwd.gemm_flops - first_layer_dx
        # ... and one adjoint propagation pass per layer but the first.
        assert bwd.spmm_calls == len(model.layers) - 1
