"""Root-sampled random-walk subgraph sampler (GraphSAINT ``rw_sampling``).

The follow-up paper ("Accurate, Efficient and Scalable Training of Graph
Neural Networks", PAPERS.md) samples a subgraph by picking ``r`` root
vertices uniformly at random (with replacement) and walking ``h`` steps
from each root; the subgraph is induced on the union of all visited
vertices, so the budget is ``r * (h + 1)`` visits. Walks favor
well-connected regions — the sampled subgraphs keep more of the original
edges between their vertices than uniform node sampling, which is what
makes the family competitive with the paper's frontier sampler.

Execution engines (the PR 5 recipe, mirroring
:mod:`repro.sampling.dashboard`):

* ``engine="reference"`` — one scalar walk at a time: every step draws a
  uniform neighbor through :meth:`CSRGraph.random_neighbor`. The
  correctness oracle.
* ``engine="fast"`` (default) — level-synchronous execution: all ``r``
  walkers advance one step per level through one batched
  :meth:`CSRGraph.random_neighbors` call, and each level's visits land
  in the visit buffer as one slab write.

Both engines draw from the same subgraph distribution (each walker's
trajectory is an independent uniform random walk either way; verified
statistically in the test suite) and meter identical
:class:`~repro.parallel.costmodel.CostCounter` totals: one ``rand_op``
and two shared adjacency reads (indptr + indices) per step, one private
visit-buffer write per visit, and the per-level neighbor gather charged
as vector chunks — the cost model prices the
algorithm's parallel structure, not the Python execution strategy.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..parallel.costmodel import CostCounter
from .base import GraphSampler

__all__ = ["RandomWalkBatchSampler"]


class RandomWalkBatchSampler(GraphSampler):
    """GraphSAINT-style multi-root random-walk sampler.

    Parameters
    ----------
    graph:
        Graph to sample; every vertex needs degree >= 1 (walks cannot
        leave an isolated vertex).
    num_roots:
        ``r`` — roots drawn uniformly with replacement per subgraph.
    walk_depth:
        ``h`` — steps taken from each root; each walk visits
        ``h + 1`` vertices including the root.
    engine:
        ``"fast"`` (level-synchronous batched walks, the default) or
        ``"reference"`` (one scalar walk at a time).
    """

    tag = "rw"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        num_roots: int,
        walk_depth: int,
        engine: str = "fast",
    ) -> None:
        super().__init__(graph, engine=engine)
        if num_roots <= 0:
            raise ValueError("num_roots must be positive")
        if walk_depth < 1:
            raise ValueError("walk_depth must be >= 1")
        self._require_min_degree()
        self.num_roots = num_roots
        self.walk_depth = walk_depth

    def _draw_fast(self, rng: np.random.Generator):
        """Level-synchronous: all walkers advance one step per level."""
        visited = self._roots(rng)
        for step in range(self.walk_depth):
            visited[step + 1] = self.graph.random_neighbors(visited[step], rng)
        return self._metered(visited)

    def _draw_reference(self, rng: np.random.Generator):
        """One scalar walk at a time."""
        visited = self._roots(rng)
        for j in range(self.num_roots):
            cur = int(visited[0, j])
            for step in range(self.walk_depth):
                cur = self.graph.random_neighbor(cur, rng)
                visited[step + 1, j] = cur
        return self._metered(visited)

    def _roots(self, rng: np.random.Generator) -> np.ndarray:
        """Visit buffer with row 0 drawn: one batched uniform draw in both
        engines (with replacement, as in the GraphSAINT reference
        implementation)."""
        visited = np.empty((self.walk_depth + 1, self.num_roots), dtype=np.int64)
        visited[0] = rng.integers(0, self.graph.num_vertices, size=self.num_roots)
        return visited

    def _metered(self, visited: np.ndarray):
        r, h = self.num_roots, self.walk_depth
        steps = r * h
        # Identical metering for both engines (see module docstring): the
        # reference oracle performs the same logical work the fast engine
        # batches, so it reports the same parallelizable structure.
        counter = CostCounter()
        counter.rand_ops += r + steps  # roots + one neighbor-offset draw per step
        counter.mem_ops += 2 * steps  # shared indptr + indices reads
        counter.private_mem_ops += r * (h + 1)  # visit-buffer writes
        for _ in range(h):
            counter.count_vector_op(r)
        if obs_enabled():
            obs_metrics.inc("sampler.walk_steps", steps)
        stats = {"num_roots": float(r), "walk_steps": float(steps)}
        return visited.ravel(), stats, counter
