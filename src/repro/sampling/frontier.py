"""Serial frontier sampler — the reference implementation of Algorithm 2.

The frontier sampling algorithm of Ribeiro & Towsley maintains a fixed-size
frontier of ``m`` vertices. Each step pops one frontier vertex with
probability proportional to its degree, replaces it with a uniformly-random
neighbor, and adds the popped vertex to the sample. This implementation is
deliberately straightforward — O(m) per pop via an explicit probability
vector — and serves as the correctness oracle for the Dashboard-based
sampler (Section IV-B), which computes the same distribution with O(1)
expected work per pop.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from .base import GraphSampler

__all__ = ["FrontierSampler"]


class FrontierSampler(GraphSampler):
    """Algorithm 2: degree-proportional frontier sampling.

    Parameters
    ----------
    graph:
        Graph to sample; every vertex must have degree >= 1 (the pop step
        draws a uniform neighbor of the popped vertex).
    frontier_size:
        ``m`` — the paper cites 1000 as a good empirical value; scaled
        datasets use proportionally smaller frontiers.
    budget:
        ``n`` — the number of sampling iterations is ``budget -
        frontier_size``; the returned subgraph has at most ``budget``
        (unique) vertices.
    """

    tag = "frontier"

    def __init__(
        self, graph: CSRGraph, *, frontier_size: int, budget: int
    ) -> None:
        super().__init__(graph)
        if frontier_size <= 0:
            raise ValueError("frontier_size must be positive")
        if budget < frontier_size:
            raise ValueError("budget must be >= frontier_size")
        if frontier_size > graph.num_vertices:
            raise ValueError(
                f"frontier_size {frontier_size} exceeds graph size {graph.num_vertices}"
            )
        self._require_min_degree()
        self.frontier_size = frontier_size
        self.budget = budget

    def _draw(self, rng: np.random.Generator):
        graph = self.graph
        m = self.frontier_size
        frontier = rng.choice(graph.num_vertices, size=m, replace=False)
        frontier_deg = graph.degrees[frontier].astype(np.float64)

        sampled = np.empty(self.budget, dtype=np.int64)
        sampled[:m] = frontier
        pops = self.budget - m
        degrees = graph.degrees
        for i in range(pops):
            # Degree-proportional pop (Algorithm 2, line 4): inverse-CDF
            # draw over the degree weights. Still O(m) per pop — the
            # serial complexity the Dashboard removes — but the cumsum +
            # searchsorted pair is one vectorized pass where the previous
            # normalize-then-``rng.choice(p=...)`` rebuilt a full
            # probability vector (and re-validated it) every iteration.
            cum = np.cumsum(frontier_deg)
            slot = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            popped = frontier[slot]
            # Uniform neighbor replacement (lines 5-6).
            replacement = graph.random_neighbor(popped, rng)
            frontier[slot] = replacement
            frontier_deg[slot] = degrees[replacement]
            sampled[m + i] = popped

        if obs_enabled():
            obs_metrics.inc("sampler.pops", pops)
        stats = {
            "pops": float(pops),
            # O(m) distribution rebuild per pop — the serial complexity
            # the Dashboard structure removes.
            "distribution_work": float(pops * m),
        }
        return sampled, stats, None
