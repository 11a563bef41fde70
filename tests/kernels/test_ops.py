"""Dispatch-layer kernels: bit-identity, out= buffers, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import ops as kernel_ops
from repro.kernels.backends import adjacency_matrix


class TestGemm:
    def test_bit_identical_to_matmul(self, rng):
        a = rng.standard_normal((17, 9))
        b = rng.standard_normal((9, 5))
        np.testing.assert_array_equal(kernel_ops.gemm(a, b), a @ b)

    def test_out_buffer_bit_identical(self, rng):
        a = rng.standard_normal((8, 6))
        b = rng.standard_normal((6, 4))
        out = np.empty((8, 4))
        returned = kernel_ops.gemm(a, b, out=out)
        assert returned is out
        np.testing.assert_array_equal(out, a @ b)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            kernel_ops.gemm(rng.standard_normal(4), rng.standard_normal((4, 2)))

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_ops.gemm(
                rng.standard_normal((3, 4)), rng.standard_normal((5, 2))
            )


class TestGemmAccumulate:
    def test_no_scratch_is_plain_accumulate(self, rng):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((3, 2))
        acc = rng.standard_normal((6, 2))
        expected = acc + a @ b
        returned = kernel_ops.gemm_accumulate(acc, a, b)
        assert returned is acc
        np.testing.assert_array_equal(acc, expected)

    def test_rejects_acc_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="acc shape"):
            kernel_ops.gemm_accumulate(
                np.zeros((5, 2)),
                rng.standard_normal((6, 3)),
                rng.standard_normal((3, 2)),
            )


class TestSpmm:
    @pytest.mark.parametrize("backend", ["scipy", "numpy"])
    def test_matches_dense_adjacency(self, medium_graph, rng, backend):
        x = rng.standard_normal((medium_graph.num_vertices, 5))
        dense = adjacency_matrix(medium_graph).toarray()
        result = kernel_ops.spmm(medium_graph, x, backend=backend)
        np.testing.assert_allclose(result, dense @ x, rtol=1e-10)

    @pytest.mark.parametrize("backend", ["scipy", "numpy"])
    def test_out_buffer(self, triangle_graph, rng, backend):
        x = rng.standard_normal((3, 4))
        out = np.empty((3, 4))
        returned = kernel_ops.spmm(triangle_graph, x, out=out, backend=backend)
        assert returned is out
        np.testing.assert_allclose(
            out, adjacency_matrix(triangle_graph).toarray() @ x
        )

    def test_adjoint_equals_forward_for_symmetric_graphs(
        self, medium_graph, rng
    ):
        x = rng.standard_normal((medium_graph.num_vertices, 3))
        np.testing.assert_array_equal(
            kernel_ops.spmm_adjoint(medium_graph, x),
            kernel_ops.spmm(medium_graph, x),
        )

    def test_rejects_wrong_row_count(self, triangle_graph, rng):
        with pytest.raises(ValueError, match="vertices"):
            kernel_ops.spmm(triangle_graph, rng.standard_normal((5, 2)))

    def test_rejects_1d_features(self, triangle_graph, rng):
        with pytest.raises(ValueError, match="2-D"):
            kernel_ops.spmm(triangle_graph, rng.standard_normal(3))


class TestGatherScatter:
    def test_gather_segment_sum_weighted(self, rng):
        src = rng.standard_normal((6, 3))
        take = np.array([0, 2, 4, 1, 1])
        indptr = np.array([0, 3, 3, 5])  # middle destination has no edges
        weights = rng.standard_normal(5)
        out = kernel_ops.gather_segment_sum(
            src, take, indptr, 3, weights=weights
        )
        manual = np.zeros((3, 3))
        for dst in range(3):
            for e in range(indptr[dst], indptr[dst + 1]):
                manual[dst] += weights[e] * src[take[e]]
        np.testing.assert_allclose(out, manual)

    def test_scatter_add_is_gather_adjoint(self, rng):
        # <gather(x), y> == <x, scatter(y)> for the unweighted operator.
        src = rng.standard_normal((7, 2))
        take = np.array([0, 3, 3, 6, 2])
        indptr = np.array([0, 2, 5])
        grad = rng.standard_normal((2, 2))
        fwd = kernel_ops.gather_segment_sum(src, take, indptr, 2)
        per_edge = np.repeat(grad, np.diff(indptr), axis=0)
        bwd = kernel_ops.scatter_add_rows(per_edge, take, 7)
        np.testing.assert_allclose(
            float((fwd * grad).sum()), float((src * bwd).sum())
        )

    def test_gather_weights_keep_feature_dtype(self, rng):
        src = rng.standard_normal((4, 2)).astype(np.float32)
        take = np.array([0, 1, 3])
        indptr = np.array([0, 2, 3])
        weights = rng.standard_normal(3)  # float64 on purpose
        out = kernel_ops.gather_segment_sum(
            src, take, indptr, 2, weights=weights
        )
        assert out.dtype == np.float32


class TestElementwise:
    def test_relu_matches_maximum(self, rng):
        x = rng.standard_normal((5, 4))
        np.testing.assert_array_equal(kernel_ops.relu(x), np.maximum(x, 0.0))
        out = np.empty_like(x)
        kernel_ops.relu(x, out=out)
        np.testing.assert_array_equal(out, np.maximum(x, 0.0))

    def test_relu_backward_paths_agree(self, rng):
        # Bit patterns, not values: assert_array_equal treats -0.0 == +0.0,
        # and a masked multiply gives -0.0 where z <= 0 and grad < 0.
        z = np.concatenate([rng.standard_normal((5, 4)), [[-1.0, 2.0, -3.0, 0.0]]])
        g = np.concatenate([rng.standard_normal((5, 4)), [[-5.0, -0.0, 7.0, -1.0]]])
        expected = np.where(z > 0.0, g, 0.0).view(np.int64)
        np.testing.assert_array_equal(
            kernel_ops.relu_backward(z, g).view(np.int64), expected
        )
        out = np.empty_like(z)
        assert kernel_ops.relu_backward(z, g, out=out) is out
        np.testing.assert_array_equal(out.view(np.int64), expected)

    def test_add_bias_inplace_and_copy(self, rng):
        z = rng.standard_normal((3, 2))
        b = rng.standard_normal(2)
        copied = kernel_ops.add_bias(z.copy(), b)
        np.testing.assert_array_equal(copied, z + b)
        buf = z.copy()
        returned = kernel_ops.add_bias(buf, b, inplace=True)
        assert returned is buf
        np.testing.assert_array_equal(buf, z + b)
