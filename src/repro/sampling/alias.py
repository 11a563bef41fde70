"""Walker alias tables — the classic O(1) static sampler, for contrast.

Section IV-A: "Existing well-known methods for fast sampling such as
aliasing (which can output a sample in O(1) time with linear processing)
cannot be modified easily for this problem [sampling a dynamic degree
distribution]." This module implements the alias method so that claim is
measurable rather than asserted:

* :class:`AliasTable` — O(n) construction, O(1) exact sampling from a
  fixed discrete distribution. Used productively where the distribution
  *is* static: FastGCN's importance distribution.
* :func:`dynamic_sampling_cost` — the cost of running the frontier
  sampler's pop-replace loop on alias tables (a full O(m) rebuild per
  replacement) vs the Dashboard's incremental update; the X8 ablation
  turns this into the paper's comparison.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AliasTable", "dynamic_sampling_cost"]


class AliasTable:
    """Walker's alias method over non-negative weights.

    Construction is O(n); each draw uses one uniform index + one uniform
    float (O(1)). Sampling is exact: probabilities equal
    ``weights / weights.sum()``.
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        total = weights.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        n = weights.size
        self.n = n
        # Normalize before scaling: (w / total) * n avoids overflow when
        # the total is denormal-small (n / total can exceed float range).
        prob = (weights / total) * n
        self.prob = np.ones(n, dtype=np.float64)
        self.alias = np.arange(n, dtype=np.int64)
        small = [i for i in range(n) if prob[i] < 1.0]
        large = [i for i in range(n) if prob[i] >= 1.0]
        prob = prob.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            self.prob[s] = prob[s]
            self.alias[s] = l
            prob[l] = prob[l] - (1.0 - prob[s])
            (small if prob[l] < 1.0 else large).append(l)
        for i in large + small:
            self.prob[i] = 1.0
            self.alias[i] = i

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | int:
        """Draw one index (``size=None``) or ``size`` i.i.d. indices."""
        count = 1 if size is None else size
        cols = rng.integers(0, self.n, size=count)
        coins = rng.random(count)
        out = np.where(coins < self.prob[cols], cols, self.alias[cols])
        return int(out[0]) if size is None else out.astype(np.int64)


def dynamic_sampling_cost(
    *, m: int, pops: int, avg_degree: float, eta: float
) -> dict[str, float]:
    """Modeled operation counts for frontier sampling's dynamic pop-replace
    loop under the two data structures.

    Alias tables support O(1) draws but not single-element updates: every
    pop replaces one frontier vertex, invalidating the table, so each of
    the ``pops`` iterations pays a full O(m) rebuild. The Dashboard pays
    the amortized Eq. 2 update term instead.
    """
    if m <= 0 or pops < 0 or avg_degree <= 0 or eta <= 1.0:
        raise ValueError("invalid parameters")
    alias = float(pops) * (m + 1.0)  # rebuild + O(1) draw per pop
    dashboard = float(pops) * (eta + (4.0 + 3.0 / (eta - 1.0)) * avg_degree)
    return {
        "alias_ops": alias,
        "dashboard_ops": dashboard,
        "dashboard_advantage": alias / dashboard if dashboard else float("inf"),
    }
