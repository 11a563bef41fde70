"""Tests for weight initializers and the gradient-check utility itself."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.gradcheck import check_gradients, max_relative_error, numerical_gradient
from repro.nn.init import xavier_uniform


class TestXavier:
    def test_uniform_bounds(self, rng):
        w = xavier_uniform(100, 50, rng=rng)
        a = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert w.min() >= -a and w.max() <= a

    def test_uniform_variance(self, rng):
        w = xavier_uniform(400, 400, rng=rng)
        expected_var = 2.0 / 800
        assert w.var() == pytest.approx(expected_var, rel=0.1)

    def test_invalid_fans(self, rng):
        with pytest.raises(ValueError):
            xavier_uniform(0, 5, rng=rng)
        with pytest.raises(ValueError):
            xavier_uniform(5, -1, rng=rng)


class TestGradcheckUtility:
    def test_detects_correct_gradient(self):
        x = np.array([1.0, 2.0, 3.0])

        def f():
            return float(np.sum(x**2))

        idx, numeric = numerical_gradient(f, x)
        assert np.allclose(numeric, 2 * x[idx], atol=1e-6)

    def test_detects_wrong_gradient(self):
        x = np.array([1.0, 2.0])

        def f():
            return float(np.sum(x**2))

        wrong = {"x": 3 * x}  # should be 2x
        with pytest.raises(AssertionError, match="gradient check failed"):
            check_gradients(f, {"x": x}, wrong, tol=1e-5)

    def test_max_relative_error_floor(self):
        assert max_relative_error(np.zeros(3), np.zeros(3)) == 0.0
        assert max_relative_error(np.array([1e-12]), np.array([0.0])) < 1e-3
