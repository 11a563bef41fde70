"""Degree-weighted edge sampler (GraphSAINT ``edge_sampling``).

The follow-up paper ("Accurate, Efficient and Scalable Training of Graph
Neural Networks", PAPERS.md) samples a subgraph by drawing ``D``
undirected edges with replacement with probability proportional to
``w_e = 1/deg(u) + 1/deg(v)`` and inducing on the union of drawn
endpoints. The weighting is the paper's variance-minimizing choice: it
up-weights edges whose endpoints have few other chances to be covered,
so low-degree regions are not starved.

The weight distribution is *static* (it depends only on the graph), so
this is exactly the workload where the alias method shines — the
contrast case :mod:`repro.sampling.alias` documents for Section IV-A.
An :class:`~repro.sampling.alias.AliasTable` over the undirected-edge
weights is built once at construction; every subgraph then costs
``D`` O(1) draws.

Execution engines (the PR 5 recipe):

* ``engine="reference"`` — ``D`` scalar ``AliasTable.sample(rng)`` calls,
  one edge at a time. The correctness oracle.
* ``engine="fast"`` (default) — a single batched
  ``AliasTable.sample(rng, D)`` call plus two slab gathers for the
  endpoint arrays.

Both engines draw i.i.d. from the identical alias distribution and meter
identical :class:`~repro.parallel.costmodel.CostCounter` totals: two
``rand_ops`` (uniform column + coin) and two shared table reads
(``prob`` + ``alias``) per draw, two private endpoint-buffer writes per
draw, and the endpoint gathers charged as vector chunks — the cost model
prices the algorithm's structure, not the Python execution strategy.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..parallel.costmodel import CostCounter
from .alias import AliasTable
from .base import GraphSampler
from .norm import edge_sampling_weights

__all__ = ["DegreeWeightedEdgeSampler"]


class DegreeWeightedEdgeSampler(GraphSampler):
    """GraphSAINT-style with-replacement weighted edge sampler.

    Parameters
    ----------
    graph:
        Graph to sample; must contain at least one edge.
    num_draws:
        ``D`` — edges drawn with replacement per subgraph; the vertex
        budget is at most ``2 * D`` before deduplication.
    engine:
        ``"fast"`` (one batched alias draw, the default) or
        ``"reference"`` (scalar draws).
    """

    tag = "edge"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        num_draws: int,
        engine: str = "fast",
    ) -> None:
        super().__init__(graph, engine=engine)
        if num_draws <= 0:
            raise ValueError("num_draws must be positive")
        self.num_draws = num_draws
        self._src, self._dst, weights = edge_sampling_weights(graph)
        self._alias = AliasTable(weights)

    def _draw_fast(self, rng: np.random.Generator):
        """One batched alias draw."""
        return self._metered(self._alias.sample(rng, self.num_draws))

    def _draw_reference(self, rng: np.random.Generator):
        """Scalar alias draws, one edge at a time."""
        picks = np.empty(self.num_draws, dtype=np.int64)
        for j in range(self.num_draws):
            picks[j] = self._alias.sample(rng)
        return self._metered(picks)

    def _metered(self, picks: np.ndarray):
        d = self.num_draws
        # Identical metering for both engines (see module docstring).
        counter = CostCounter()
        counter.rand_ops += 2 * d  # uniform column + coin per draw
        counter.mem_ops += 2 * d  # shared prob + alias table reads
        counter.private_mem_ops += 2 * d  # two endpoint-buffer writes
        counter.count_vector_op(d)  # src endpoint slab
        counter.count_vector_op(d)  # dst endpoint slab
        if obs_enabled():
            obs_metrics.inc("sampler.edge_draws", d)
        endpoints = np.concatenate((self._src[picks], self._dst[picks]))
        return endpoints, {"edge_draws": float(d)}, counter
