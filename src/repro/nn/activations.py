"""Numerically-stable activations with explicit forward/backward pairs."""

from __future__ import annotations

import numpy as np

__all__ = ["relu", "relu_grad", "sigmoid", "softmax"]


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit: elementwise ``max(x, 0)``."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient through ReLU given pre-activation ``x``.

    Bitwise ``np.where(x > 0, grad_out, 0.0)`` for a floating
    ``grad_out`` (NaN, ±inf and -0.0 included), without its per-element
    branch: the float bits are ANDed with the mask sign-extended to the
    float's width (all ones where ``x > 0``, else all zeros = +0.0).
    """
    if x.shape != grad_out.shape:
        raise ValueError(f"relu_grad shape mismatch: {x.shape} vs {grad_out.shape}")
    bits = np.empty_like(grad_out, dtype=f"i{grad_out.dtype.itemsize}")
    np.negative(np.greater(x, 0.0).view(np.int8), out=bits)
    np.bitwise_and(bits, grad_out.view(bits.dtype), out=bits)
    return bits.view(grad_out.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic: never exponentiates a positive argument.

    ``e = exp(-|x|)`` serves both branches — ``1 / (1 + e)`` for
    ``x >= 0`` and ``e / (1 + e)`` below — so the result is bitwise the
    two-branch form with no boolean gather or scatter. Dtype-preserving
    for floating inputs (float32 stays float32); integer/bool inputs
    compute in float64.
    """
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    e = np.exp(np.negative(np.abs(x)))
    num = np.where(x >= 0, 1.0, e)
    np.add(e, 1.0, out=e)
    return np.divide(num, e, out=num)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax (max-shifted)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)
