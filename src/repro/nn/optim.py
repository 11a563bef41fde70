"""Optimizers (the ADAM step of Algorithm 1).

Optimizers operate on a flat list of ``(params, grads)`` dict pairs — one
pair per layer — updating parameters in place. State (Adam moments) is
keyed by ``(pair index, name)`` so layers can be heterogeneous.

``Adam.step`` walks each parameter in blocks of ``_BLOCK`` elements, so
``p``, ``g``, ``m``, ``v`` and two scratch rows stay in L2 while the
update's ufuncs run over them; every ufunc is the unblocked formula's, in
the same order and association, so the result is bit for bit the same.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam", "ParamGroup"]

#: Adam's moment decays and denominator guard: the TF1 defaults of the
#: paper's reference code.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# Elements per Adam block: 2^15 float64s of six rows is 1.5 MB, inside a
# 2 MB L2 (2^12 and 2^16 measured slower on reddit's 1.7 M parameters).
_BLOCK = 1 << 15

ParamGroup = tuple[dict[str, np.ndarray], dict[str, np.ndarray]]


class Adam:
    """Adam (Kingma & Ba) with bias correction and optional L2 decay, at
    :data:`BETA1`, :data:`BETA2` and :data:`EPS`."""

    def __init__(self, lr: float = 0.01, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m: dict[tuple[int, str], np.ndarray] = {}
        self._v: dict[tuple[int, str], np.ndarray] = {}

    def step(self, groups: list[ParamGroup]) -> None:
        """Apply one bias-corrected Adam update to every parameter, in place.

        Per element this is ``g = g + wd * p`` (matrices only), ``m = b1*m
        + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2`` and ``p -= lr * (m / b1t)
        / (sqrt(v / b2t) + eps)``, run block by block over flat views.
        A parameter that is not C-contiguous raises ``ValueError``: its
        flat view would be a copy, and the update would be lost.
        """
        self.t += 1
        beta1, beta2, lr, eps = BETA1, BETA2, self.lr, EPS
        b1t = 1.0 - beta1**self.t
        b2t = 1.0 - beta2**self.t
        for gi, (params, grads) in enumerate(groups):
            for name, p in params.items():
                if not p.flags.c_contiguous:
                    raise ValueError(
                        f"Adam updates parameters in place; {name!r} is not C-contiguous"
                    )
                key = (gi, name)
                if key not in self._m:
                    self._m[key] = np.zeros_like(p)
                    self._v[key] = np.zeros_like(p)
                decay = self.weight_decay if p.ndim > 1 else 0.0
                flat_p = p.reshape(-1)
                flat_g = grads[name].reshape(-1)
                flat_m = self._m[key].reshape(-1)
                flat_v = self._v[key].reshape(-1)
                scratch = np.empty((2, min(_BLOCK, p.size)), p.dtype)
                for lo in range(0, p.size, _BLOCK):
                    blk = slice(lo, lo + _BLOCK)
                    pb, g, m, v = flat_p[blk], flat_g[blk], flat_m[blk], flat_v[blk]
                    s1, s2 = scratch[0, : pb.size], scratch[1, : pb.size]
                    if decay:
                        np.multiply(decay, pb, out=s1)
                        g = np.add(g, s1, out=s1)
                    np.multiply(m, beta1, out=m)
                    np.add(m, np.multiply(1.0 - beta1, g, out=s2), out=m)
                    np.multiply(v, beta2, out=v)
                    np.multiply(1.0 - beta2, np.square(g, out=s2), out=s2)
                    np.add(v, s2, out=v)
                    np.multiply(lr, np.divide(m, b1t, out=s1), out=s1)
                    np.sqrt(np.divide(v, b2t, out=s2), out=s2)
                    np.add(s2, eps, out=s2)
                    np.subtract(pb, np.divide(s1, s2, out=s1), out=pb)

    def reset(self) -> None:
        """Drop all moment state (used when re-initializing a model)."""
        self.t = 0
        self._m.clear()
        self._v.clear()
