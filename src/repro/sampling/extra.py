"""Additional graph samplers (the future-work section of the paper).

Section VII announces "extend[ing] the parallel sampler implementation to
support a wider class of sampling algorithms". These samplers implement
that extension behind the same :class:`GraphSampler` interface so they are
drop-in replacements in the trainer, and the X4 ablation compares them —
next to the zoo's ``rw`` and ``edge`` families — to frontier sampling on
connectivity preservation and downstream accuracy:

* :class:`RandomNodeSampler` — uniform vertex sample (no connectivity bias).
* :class:`ForestFireSampler` — probabilistic BFS burn (Leskovec et al.).
* :class:`MetropolisHastingsWalkSampler` — degree-unbiased walks.
* :class:`SnowballSampler` — bounded-fanout BFS.

None of them meters its work: each supplies only the
:meth:`GraphSampler._draw` hook and is priced by subgraph size.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from .base import GraphSampler

__all__ = [
    "RandomNodeSampler",
    "ForestFireSampler",
    "MetropolisHastingsWalkSampler",
    "SnowballSampler",
]


class RandomNodeSampler(GraphSampler):
    """Uniformly sample ``budget`` distinct vertices."""

    tag = "node"

    def __init__(self, graph: CSRGraph, *, budget: int) -> None:
        super().__init__(graph)
        if not (0 < budget <= graph.num_vertices):
            raise ValueError("budget must lie in [1, num_vertices]")
        self.budget = budget

    def _draw(self, rng: np.random.Generator):
        vertices = rng.choice(self.graph.num_vertices, size=self.budget, replace=False)
        return vertices, {}, None


class ForestFireSampler(GraphSampler):
    """Forest-fire sampling: BFS burn where each frontier vertex ignites a
    geometric number of unburned neighbors (mean ``burn_ratio / (1 -
    burn_ratio)``), restarted from fresh uniform roots until ``budget``
    vertices burned."""

    tag = "forest_fire"

    def __init__(
        self, graph: CSRGraph, *, budget: int, burn_ratio: float = 0.7
    ) -> None:
        super().__init__(graph)
        if not (0 < budget <= graph.num_vertices):
            raise ValueError("budget must lie in [1, num_vertices]")
        if not (0.0 < burn_ratio < 1.0):
            raise ValueError("burn_ratio must lie in (0, 1)")
        self.budget = budget
        self.burn_ratio = burn_ratio

    def _draw(self, rng: np.random.Generator):
        graph = self.graph
        burned = np.zeros(graph.num_vertices, dtype=bool)
        count = 0
        while count < self.budget:
            root = int(rng.integers(graph.num_vertices))
            if burned[root]:
                continue
            burned[root] = True
            count += 1
            frontier = [root]
            while frontier and count < self.budget:
                v = frontier.pop()
                nbrs = graph.neighbors(v)
                fresh = nbrs[~burned[nbrs]]
                if fresh.size == 0:
                    continue
                k = min(int(rng.geometric(1.0 - self.burn_ratio)), fresh.size)
                picks = rng.choice(fresh, size=k, replace=False)
                burned[picks] = True
                count += k
                frontier.extend(int(p) for p in picks)
        vertices = np.flatnonzero(burned)[: self.budget]
        return vertices, {}, None


class MetropolisHastingsWalkSampler(GraphSampler):
    """Metropolis–Hastings random walk: a degree-*unbiased* walker.

    A proposal to move from ``u`` to neighbor ``v`` is accepted with
    probability ``min(1, deg(u)/deg(v))``, making the stationary
    distribution uniform over vertices instead of degree-proportional —
    the classic contrast to frontier sampling for the X4 ablation.
    """

    tag = "mh_walk"

    def __init__(
        self, graph: CSRGraph, *, num_roots: int, walk_length: int
    ) -> None:
        super().__init__(graph)
        if num_roots <= 0 or walk_length <= 0:
            raise ValueError("num_roots and walk_length must be positive")
        self._require_min_degree()
        self.num_roots = num_roots
        self.walk_length = walk_length

    def _draw(self, rng: np.random.Generator):
        graph = self.graph
        current = rng.choice(
            graph.num_vertices,
            size=self.num_roots,
            replace=self.num_roots > graph.num_vertices,
        ).astype(np.int64)
        visited = [current.copy()]
        deg = graph.degrees
        for _ in range(self.walk_length):
            proposal = graph.random_neighbors(current, rng)
            accept_prob = np.minimum(
                1.0, deg[current].astype(np.float64) / deg[proposal]
            )
            accept = rng.random(current.shape[0]) < accept_prob
            current = np.where(accept, proposal, current).astype(np.int64)
            visited.append(current.copy())
        vertices = np.concatenate(visited)
        return vertices, {}, None


class SnowballSampler(GraphSampler):
    """Snowball sampling: BFS from ``num_seeds`` roots keeping at most
    ``fanout`` fresh neighbors per expanded vertex, until ``budget``
    vertices are collected. A bounded-breadth contrast to forest fire."""

    tag = "snowball"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        budget: int,
        num_seeds: int = 4,
        fanout: int = 5,
    ) -> None:
        super().__init__(graph)
        if not (0 < budget <= graph.num_vertices):
            raise ValueError("budget must lie in [1, num_vertices]")
        if num_seeds < 1 or fanout < 1:
            raise ValueError("num_seeds and fanout must be >= 1")
        self.budget = budget
        self.num_seeds = num_seeds
        self.fanout = fanout

    def _draw(self, rng: np.random.Generator):
        graph = self.graph
        taken = np.zeros(graph.num_vertices, dtype=bool)
        seeds = rng.choice(
            graph.num_vertices,
            size=min(self.num_seeds, self.budget),
            replace=False,
        )
        taken[seeds] = True
        count = int(taken.sum())
        frontier = list(int(s) for s in seeds)
        while frontier and count < self.budget:
            next_frontier: list[int] = []
            for v in frontier:
                if count >= self.budget:
                    break
                nbrs = graph.neighbors(v)
                fresh = nbrs[~taken[nbrs]]
                if fresh.size == 0:
                    continue
                k = min(self.fanout, fresh.size, self.budget - count)
                picks = rng.choice(fresh, size=k, replace=False)
                taken[picks] = True
                count += k
                next_frontier.extend(int(p) for p in picks)
            frontier = next_frontier
            if not frontier and count < self.budget:
                # Graph exhausted locally: reseed from unvisited vertices.
                remaining = np.flatnonzero(~taken)
                if remaining.size == 0:
                    break
                seed = int(remaining[rng.integers(remaining.size)])
                taken[seed] = True
                count += 1
                frontier = [seed]
        vertices = np.flatnonzero(taken)[: self.budget]
        return vertices, {}, None
