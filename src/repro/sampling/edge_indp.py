"""Independent per-edge Bernoulli sampler (GraphSAINT ``edge_indp_sampling``).

The follow-up paper ("Accurate, Efficient and Scalable Training of Graph
Neural Networks", PAPERS.md) describes a second edge-sampler variant:
instead of drawing a fixed number of edges with replacement, every
undirected edge flips an independent coin and is kept with probability
``p_e = min(1, budget * w_e / sum(w))`` where
``w_e = 1/deg(u) + 1/deg(v)``. The expected number of kept edges is (at
most) ``budget``, the subgraph size varies run to run, and — crucially
for normalization — inclusion probabilities have exact closed forms
(:func:`repro.sampling.norm.independent_edge_coefficients`), making this
the cleanest sampler to verify variance-corrected training against.

Execution engines (the PR 5 recipe):

* ``engine="reference"`` — one scalar ``rng.random()`` coin per
  undirected edge, in edge order. The correctness oracle.
* ``engine="fast"`` (default) — a single ``rng.random(m) < p`` vector
  comparison over all undirected edges.

Both engines flip one independent coin per edge against the same
``p_e`` (so they draw from the identical subgraph distribution) and
meter identical :class:`~repro.parallel.costmodel.CostCounter` totals:
one ``rand_op`` and one shared probability read per undirected edge, the
full-edge-list comparison charged as vector chunks, and two private
endpoint-buffer writes per *kept* edge. In the (possible but
astronomically unlikely at practical budgets) event that no edge
survives, the sampler redraws — rejection keeps every kept subgraph
non-empty without biasing edge inclusion beyond the negligible
conditioning on non-emptiness.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..parallel.costmodel import CostCounter
from .base import GraphSampler
from .norm import edge_sampling_weights

__all__ = ["IndependentEdgeSampler"]


class IndependentEdgeSampler(GraphSampler):
    """GraphSAINT-style independent Bernoulli edge sampler.

    Parameters
    ----------
    graph:
        Graph to sample; must contain at least one edge.
    edge_budget:
        Expected number of kept undirected edges (before the
        ``min(1, .)`` clip); per-edge keep probability is
        ``min(1, edge_budget * w_e / sum(w))``.
    engine:
        ``"fast"`` (one vectorized comparison, the default) or
        ``"reference"`` (scalar per-edge coins).
    """

    tag = "edge_indp"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        edge_budget: int,
        engine: str = "fast",
    ) -> None:
        super().__init__(graph, engine=engine)
        if edge_budget <= 0:
            raise ValueError("edge_budget must be positive")
        self.edge_budget = edge_budget
        self._src, self._dst, weights = edge_sampling_weights(graph)
        self._edge_prob = np.minimum(1.0, edge_budget * weights / weights.sum())

    def _draw_fast(self, rng: np.random.Generator):
        return self._until_kept(self._flip_fast, rng)

    def _draw_reference(self, rng: np.random.Generator):
        return self._until_kept(self._flip_reference, rng)

    def _flip_fast(self, rng: np.random.Generator) -> np.ndarray:
        """One vectorized comparison over all undirected edges."""
        return rng.random(self._edge_prob.shape[0]) < self._edge_prob

    def _flip_reference(self, rng: np.random.Generator) -> np.ndarray:
        """One scalar coin per undirected edge, in edge order."""
        keep = np.empty(self._edge_prob.shape[0], dtype=bool)
        for e in range(keep.shape[0]):
            keep[e] = rng.random() < self._edge_prob[e]
        return keep

    def _until_kept(self, flip, rng: np.random.Generator):
        """Flip rounds until an edge survives (see module docstring)."""
        m = self._edge_prob.shape[0]
        counter = CostCounter()
        rounds = 0
        while True:
            rounds += 1
            keep = flip(rng)
            # Identical metering for both engines, charged per round (see
            # module docstring).
            counter.rand_ops += m  # one coin per undirected edge
            counter.mem_ops += m  # shared probability reads
            counter.count_vector_op(m)
            kept = int(keep.sum())
            if kept:
                break
        counter.private_mem_ops += 2 * kept  # endpoint-buffer writes
        if obs_enabled():
            obs_metrics.inc("sampler.edges_kept", kept)
        endpoints = np.concatenate((self._src[keep], self._dst[keep]))
        stats = {"edges_kept": float(kept), "coin_rounds": float(rounds)}
        return endpoints, stats, counter
