"""Graph statistics and connectivity measures.

Section III-C of the paper argues the frontier sampler is a good GCN
sampler because (per Ribeiro & Towsley's frontier-sampling paper) its
subgraphs "approximate the original graph with respect to multiple
connectivity measures". This module implements those measures so the test
suite and the sampler-comparison ablation (experiment X4) can check the
claim quantitatively:

* degree-distribution distance (KS statistic on normalized degrees),
* global clustering coefficient (transitivity),
* connected components / fraction in largest component,
* degree assortativity.

All of these are vectorized over CSR arrays; only the component search uses
a (frontier-array) BFS loop, which is O(n + m) with numpy inner steps.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph, _ranges_within

__all__ = [
    "degree_ks_distance",
    "connected_components",
    "largest_component_fraction",
    "global_clustering_coefficient",
    "degree_assortativity",
    "connectivity_summary",
]


def degree_ks_distance(a: CSRGraph, b: CSRGraph) -> float:
    """Kolmogorov–Smirnov distance between the two degree distributions.

    Degrees are compared on their raw scale; the statistic is the max
    absolute difference of empirical CDFs. 0 = identical distributions.
    """
    da = np.sort(a.degrees)
    db = np.sort(b.degrees)
    grid = np.union1d(da, db)
    cdf_a = np.searchsorted(da, grid, side="right") / max(da.size, 1)
    cdf_b = np.searchsorted(db, grid, side="right") / max(db.size, 1)
    return float(np.abs(cdf_a - cdf_b).max(initial=0.0))


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component id per vertex via frontier-array BFS (O(n + m))."""
    n = graph.num_vertices
    comp = np.full(n, -1, dtype=np.int64)
    next_comp = 0
    unvisited = np.ones(n, dtype=bool)
    while True:
        seeds = np.flatnonzero(unvisited)
        if seeds.size == 0:
            break
        root = seeds[0]
        comp[root] = next_comp
        unvisited[root] = False
        frontier = np.array([root], dtype=np.int64)
        while frontier.size:
            starts = graph.indptr[frontier]
            lengths = graph.indptr[frontier + 1] - starts
            if lengths.sum() == 0:
                break
            nbrs = np.unique(graph.indices[_ranges_within(lengths, starts)])
            new = nbrs[unvisited[nbrs]]
            comp[new] = next_comp
            unvisited[new] = False
            frontier = new.astype(np.int64)
        next_comp += 1
    return comp


def largest_component_fraction(graph: CSRGraph) -> float:
    """Fraction of vertices contained in the largest connected component."""
    n = graph.num_vertices
    if n == 0:
        return 0.0
    comp = connected_components(graph)
    return float(np.bincount(comp).max() / n)


def _closed_wedge_counts(graph: CSRGraph) -> np.ndarray:
    """Per-vertex closed-wedge counts (= 2 * triangles through the vertex).

    ``closed[u] = sum over v in N(u) of |N(u) ∩ N(v)|``, computed by merging
    sorted neighbor lists with ``searchsorted``. Assumes a simple graph (no
    self-loops, no parallel edges) — which every generator in this package
    guarantees — so common neighbors of an edge (u, v) never include u or v.
    """
    n = graph.num_vertices
    closed = np.zeros(n, dtype=np.float64)
    indices = graph.indices
    indptr = graph.indptr
    for u in range(n):
        nbrs_u = indices[indptr[u] : indptr[u + 1]]
        if nbrs_u.size < 2:
            continue
        # One vectorized intersection query per neighbor block: gather the
        # concatenated neighbor lists of all v in N(u), then count members
        # that also appear in N(u).
        starts = indptr[nbrs_u]
        lengths = indptr[nbrs_u.astype(np.int64) + 1] - starts
        candidates = indices[_ranges_within(lengths, starts)]
        pos = np.searchsorted(nbrs_u, candidates)
        in_range = pos < nbrs_u.size
        hits = np.zeros(candidates.shape[0], dtype=bool)
        hits[in_range] = nbrs_u[pos[in_range]] == candidates[in_range]
        closed[u] = float(hits.sum())
    return closed


def global_clustering_coefficient(graph: CSRGraph) -> float:
    """Transitivity: 3 * triangles / open-or-closed wedges."""
    deg = graph.degrees.astype(np.float64)
    wedges = float((deg * (deg - 1.0)).sum())
    if wedges == 0.0:
        return 0.0
    return float(_closed_wedge_counts(graph).sum()) / wedges


def degree_assortativity(graph: CSRGraph) -> float:
    """Pearson correlation of endpoint degrees over all directed edges."""
    if graph.num_edges_directed == 0:
        return 0.0
    deg = graph.degrees.astype(np.float64)
    x = deg[graph.edge_sources()]
    y = deg[graph.indices]
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def connectivity_summary(graph: CSRGraph) -> dict[str, float]:
    """All measures at once; used by the sampler-quality ablation."""
    return {
        "num_vertices": float(graph.num_vertices),
        "num_edges": float(graph.num_edges),
        "avg_degree": graph.average_degree,
        "largest_component_fraction": largest_component_fraction(graph),
        "global_clustering": global_clustering_coefficient(graph),
        "assortativity": degree_assortativity(graph),
    }
