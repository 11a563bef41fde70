"""Vertex partitioners for the Theorem-2 comparison experiments.

Theorem 2's punchline is that *no* graph partitioner is worth running for
the sampled subgraphs: the feature-only plan is a 2-approximation of even
an ideal partitioner. Making that comparison concrete requires actual
partitioners to measure ``gamma_P`` against:

* :func:`random_partition` — the uniform baseline (``gamma_P`` near 1 for
  any graph with average degree above ~P);
* :func:`bfs_partition` — contiguous BFS blocks, a cheap locality
  heuristic with lower ``gamma_P``;
* :func:`greedy_edge_partition` — LDG-style streaming assignment
  (Stanton-Kliot): place each vertex with the neighbor-majority partition,
  penalized by fullness. The strongest of the three, and still far from
  ``1/P`` on small dense subgraphs — which is the paper's point.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = ["random_partition", "bfs_partition", "greedy_edge_partition"]


def _validate(graph: CSRGraph, parts: int) -> None:
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts > max(graph.num_vertices, 1):
        raise ValueError("more parts than vertices")


def random_partition(
    graph: CSRGraph, parts: int, *, rng: np.random.Generator
) -> np.ndarray:
    """Near-balanced uniform random assignment."""
    _validate(graph, parts)
    assignment = np.arange(graph.num_vertices) % parts
    rng.shuffle(assignment)
    return assignment


def bfs_partition(
    graph: CSRGraph, parts: int, *, rng: np.random.Generator
) -> np.ndarray:
    """Contiguous BFS blocks of near-equal size.

    Runs one BFS from a random root (restarting on new components) and
    cuts the visit order into ``parts`` equal slices — the classic cheap
    locality partitioner.
    """
    _validate(graph, parts)
    n = graph.num_vertices
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    pos = 0
    # Deterministic-ish BFS with numpy frontier expansion.
    while pos < n:
        unvisited = np.flatnonzero(~visited)
        root = int(unvisited[rng.integers(unvisited.size)])
        frontier = np.array([root], dtype=np.int64)
        visited[root] = True
        order[pos] = root
        pos += 1
        while frontier.size:
            nbr_chunks = []
            for v in frontier:
                nbrs = graph.neighbors(int(v))
                fresh = nbrs[~visited[nbrs]]
                if fresh.size:
                    fresh = np.unique(fresh)
                    fresh = fresh[~visited[fresh]]
                    visited[fresh] = True
                    nbr_chunks.append(fresh.astype(np.int64))
            if not nbr_chunks:
                break
            frontier = np.concatenate(nbr_chunks)
            order[pos : pos + frontier.size] = frontier
            pos += frontier.size
    assignment = np.empty(n, dtype=np.int64)
    bounds = np.linspace(0, n, parts + 1).astype(int)
    for p in range(parts):
        assignment[order[bounds[p] : bounds[p + 1]]] = p
    return assignment


#: The greedy partitioner's imbalance bound: a part's capacity is
#: ``GREEDY_SLACK * n / parts``.
GREEDY_SLACK = 1.1


def greedy_edge_partition(graph: CSRGraph, parts: int, *, rng: np.random.Generator) -> np.ndarray:
    """Linear deterministic greedy (LDG) streaming partitioner.

    Vertices stream in random order; each goes to the partition holding
    most of its already-placed neighbors, weighted by remaining capacity
    ``(1 - size/capacity)``; ties break uniformly. :data:`GREEDY_SLACK`
    bounds the imbalance (capacity = slack * n / parts).
    """
    _validate(graph, parts)
    n = graph.num_vertices
    capacity = GREEDY_SLACK * n / parts
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(parts, dtype=np.float64)
    for v in rng.permutation(n):
        nbrs = graph.neighbors(int(v))
        placed = assignment[nbrs]
        placed = placed[placed >= 0]
        scores = np.bincount(placed, minlength=parts).astype(np.float64)
        scores *= np.maximum(1.0 - sizes / capacity, 0.0)
        # Fall back to least-full when no neighbor signal (or full ties).
        best = scores.max()
        candidates = (
            np.flatnonzero(scores == best) if best > 0 else np.flatnonzero(
                sizes == sizes.min()
            )
        )
        choice = int(candidates[rng.integers(candidates.size)])
        assignment[v] = choice
        sizes[choice] += 1.0
    return assignment
