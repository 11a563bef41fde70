"""Tests for the Adam optimizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.optim import _BLOCK, Adam


def quadratic_group(start: np.ndarray):
    """A param group minimizing ||x - 3||^2."""
    params = {"x": start.copy()}
    grads = {"x": np.zeros_like(start)}
    return params, grads


class TestAdam:
    def test_converges_on_quadratic(self):
        params, grads = quadratic_group(np.zeros(4))
        opt = Adam(lr=0.1)
        for _ in range(500):
            grads["x"][...] = 2 * (params["x"] - 3.0)
            opt.step([(params, grads)])
        assert np.allclose(params["x"], 3.0, atol=1e-3)

    def test_first_step_magnitude(self):
        """Bias correction makes the first step ~lr regardless of grad scale."""
        for scale in (1e-3, 1.0, 1e3):
            params, grads = quadratic_group(np.array([0.0]))
            grads["x"][...] = scale
            Adam(lr=0.01).step([(params, grads)])
            assert abs(params["x"][0]) == pytest.approx(0.01, rel=1e-3)

    def test_state_keyed_per_group(self):
        p1, g1 = quadratic_group(np.zeros(2))
        p2, g2 = quadratic_group(np.zeros(3))
        opt = Adam(lr=0.1)
        g1["x"][...] = 1.0
        g2["x"][...] = -1.0
        opt.step([(p1, g1), (p2, g2)])
        assert np.all(p1["x"] < 0) and np.all(p2["x"] > 0)

    def test_reset(self):
        params, grads = quadratic_group(np.zeros(1))
        opt = Adam(lr=0.1)
        grads["x"][...] = 1.0
        opt.step([(params, grads)])
        assert opt.t == 1
        opt.reset()
        assert opt.t == 0 and not opt._m

    def test_faster_than_sgd_on_ill_conditioned(self):
        """Adam normalizes per-coordinate scale; SGD crawls on the flat dim."""

        def run(opt):
            params = {"x": np.array([0.0, 0.0])}
            grads = {"x": np.zeros(2)}
            scales = np.array([100.0, 0.01])
            for _ in range(100):
                grads["x"][...] = 2 * scales * (params["x"] - 1.0)
                opt.step([(params, grads)])
            return params["x"]

        class SGD:
            def __init__(self, lr):
                self.lr = lr

            def step(self, groups):
                for params, grads in groups:
                    for name, p in params.items():
                        p -= self.lr * grads[name]

        # SGD lr capped by the steep dim; Adam unaffected.
        x_adam = run(Adam(lr=0.05))
        x_sgd = run(SGD(lr=0.004))  # larger diverges on the steep coordinate
        assert abs(x_adam[1] - 1.0) < abs(x_sgd[1] - 1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Adam(lr=-1)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)


class UnblockedAdam(Adam):
    """The whole-array Adam step the blocked one replaced, kept verbatim."""

    def step(self, groups):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for gi, (params, grads) in enumerate(groups):
            for name, p in params.items():
                g = grads[name]
                if self.weight_decay and p.ndim > 1:
                    g = g + self.weight_decay * p
                key = (gi, name)
                if key not in self._m:
                    self._m[key] = np.zeros_like(p)
                    self._v[key] = np.zeros_like(p)
                m, v = self._m[key], self._v[key]
                m *= self.beta1
                m += (1.0 - self.beta1) * g
                v *= self.beta2
                v += (1.0 - self.beta2) * np.square(g)
                m_hat = m / b1t
                v_hat = v / b2t
                p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestBlockedAdam:
    """Blocked Adam is bit for bit the unblocked formula, past one block."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    @pytest.mark.parametrize(
        "shape",
        [(1, _BLOCK - 1), (1, _BLOCK), (1, _BLOCK + 1), (1, 2 * _BLOCK + 3), (602, 512)],
    )
    def test_bitwise_equal_to_unblocked(self, shape, weight_decay, dtype):
        rng = np.random.default_rng(7)
        start = {
            "W": rng.standard_normal(shape).astype(dtype),
            "b": rng.standard_normal(shape[-1]).astype(dtype),  # never decayed
        }
        blocked = {k: v.copy() for k, v in start.items()}
        unblocked = {k: v.copy() for k, v in start.items()}
        views = {k: v.reshape(-1) for k, v in blocked.items()}
        objects = dict(blocked)
        opt = Adam(lr=0.01, weight_decay=weight_decay)
        ref = UnblockedAdam(lr=0.01, weight_decay=weight_decay)
        for _ in range(5):
            grads = {k: rng.standard_normal(v.shape).astype(dtype) for k, v in start.items()}
            opt.step([(blocked, grads)])
            ref.step([(unblocked, {k: g.copy() for k, g in grads.items()})])
        for name in start:
            got, want = blocked[name], unblocked[name]
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), name
            assert opt._m[(0, name)].tobytes() == ref._m[(0, name)].tobytes()
            assert opt._v[(0, name)].tobytes() == ref._v[(0, name)].tobytes()
            # Updated in place: the same objects, under the caller's views.
            assert got is objects[name]
            assert np.shares_memory(views[name], got)
            assert not np.array_equal(got, start[name])

    def test_non_contiguous_parameter_raises(self):
        base = np.zeros((4, 8))
        params = {"W": base[:, ::2]}
        grads = {"W": np.ones((4, 4))}
        with pytest.raises(ValueError, match="contiguous"):
            Adam(lr=0.1).step([(params, grads)])
        assert not base.any()
