"""Weight initializers (Glorot/Xavier family, as used by GCN/GraphSAGE)."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform"]


def xavier_uniform(
    fan_in: int, fan_out: int, *, rng: np.random.Generator, dtype=np.float64
) -> np.ndarray:
    """Glorot uniform: U(-a, a) with ``a = sqrt(6 / (fan_in + fan_out))``.

    Always drawn in float64 (the generator stream is dtype-independent,
    so float32 weights are the rounded float64 reference weights), then
    cast to ``dtype``.
    """
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError("fan_in and fan_out must be positive")
    a = np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-a, a, size=(fan_in, fan_out))
    return w.astype(dtype, copy=False)
