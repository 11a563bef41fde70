"""Tests for activation functions: values, stability, gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.activations import (
    relu,
    relu_grad,
    sigmoid,
    softmax,
)


class TestReLU:
    def test_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(relu(x), [0.0, 0.0, 3.0])

    def test_grad_masks_negatives(self):
        x = np.array([-1.0, 0.5, 2.0])
        g = np.ones(3)
        assert np.array_equal(relu_grad(x, g), [0.0, 1.0, 1.0])

    def test_grad_zero_at_zero(self):
        assert relu_grad(np.array([0.0]), np.array([1.0]))[0] == 0.0


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_symmetry(self):
        x = np.linspace(-5, 5, 21)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)

    def test_extreme_values_no_overflow(self):
        x = np.array([-1000.0, 1000.0])
        out = sigmoid(x)
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(out))

    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-20, 20, 101)
        naive = 1.0 / (1.0 + np.exp(-x))
        assert np.allclose(sigmoid(x), naive, atol=1e-12)


class TestSoftmax:
    def test_normalization(self, rng):
        x = rng.standard_normal((10, 7))
        p = softmax(x, axis=1)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((4, 5))
        assert np.allclose(softmax(x), softmax(x + 100.0))

    def test_extreme_values(self):
        x = np.array([[1e4, 0.0, -1e4]])
        p = softmax(x)
        assert np.all(np.isfinite(p))
        assert p[0, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Bitwise oracles: the branchy forms the kernels replaced, kept verbatim.


def where_relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, grad_out, 0.0)


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    dtype = x.dtype if x.dtype.kind == "f" else np.dtype(np.float64)
    out = np.empty_like(x, dtype=dtype)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-45, -1e-45]


def _float_arrays(dtype: np.dtype, shape):
    width = 8 * np.dtype(dtype).itemsize
    specials = [np.dtype(dtype).type(v) for v in _SPECIALS]
    return hnp.arrays(
        dtype=dtype,
        shape=shape,
        elements=st.one_of(st.sampled_from(specials), st.floats(width=width)),
    )


@st.composite
def _operands(draw, count: int):
    """``count`` same-shape float arrays (with ±0, ±inf, NaN, subnormals),
    optionally the strided half of a twice-as-wide array."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9))
    strided = draw(st.booleans())
    wide = shape[:-1] + (2 * shape[-1],) if strided else shape
    arrays = [draw(_float_arrays(dtype, wide)) for _ in range(count)]
    return [a[..., ::2] if strided else a for a in arrays]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal dtype, shape and bit pattern; any NaN matches any NaN."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    bits = np.dtype(f"i{want.dtype.itemsize}")
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(bits)[~nan],
        np.ascontiguousarray(want).view(bits)[~nan],
    )


class TestBitwiseOracles:
    @given(_operands(2))
    @settings(max_examples=200, deadline=None)
    def test_relu_grad_is_where(self, operands):
        x, g = operands
        assert_same_bits(relu_grad(x, g), where_relu_grad(x, g))

    @given(_operands(1))
    @settings(max_examples=200, deadline=None)
    def test_sigmoid_is_two_branch(self, operands):
        (x,) = operands
        assert_same_bits(sigmoid(x), two_branch_sigmoid(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_and_specials(self, dtype):
        x = np.array([-1.0, 0.0, -0.0, 2.0, np.nan, np.inf, -np.inf, 3.0], dtype)
        g = np.array([-5.0, -1.0, 4.0, -0.0, -2.0, np.nan, 1.0, -np.inf], dtype)
        assert_same_bits(relu_grad(x, g), where_relu_grad(x, g))
        assert_same_bits(sigmoid(x), two_branch_sigmoid(x))
        assert np.signbit(relu_grad(x, g)[:3]).tolist() == [False] * 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty(self, dtype):
        x = np.empty((0, 3), dtype)
        assert relu_grad(x, x).shape == (0, 3) and relu_grad(x, x).dtype == dtype
        assert sigmoid(x).shape == (0, 3) and sigmoid(x).dtype == dtype

    def test_relu_grad_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            relu_grad(np.ones((4, 3)), np.ones(3))
