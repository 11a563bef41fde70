"""Synthetic graph generators.

The paper evaluates on four real graphs (PPI, Reddit, Yelp, Amazon) that are
not redistributable here. These generators produce graphs matching the
*statistical profile* each algorithm actually depends on:

* degree distribution shape (power-law exponent, average degree, max-degree
  skew — the Amazon profile needs heavy skew to exercise the sampler's
  degree cap),
* community structure (so that planted class labels are learnable by a GCN
  and the time-accuracy experiment of Figure 2 is meaningful),
* scale knobs (vertex/edge counts) so every profile from Table I can be
  reproduced at a configurable fraction of its original size.

The workhorse is a degree-corrected stochastic block model (DC-SBM) sampled
with the Chung–Lu expected-degree trick: the number of edges between each
block pair is Poisson, and endpoints inside a block are drawn proportionally
to per-vertex weights. Everything is vectorized; generation of a ~100k-edge
graph takes milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph, edges_to_csr

__all__ = [
    "power_law_weights",
    "dcsbm_graph",
    "ring_of_cliques",
    "grid_graph",
    "ensure_min_degree",
    "DCSBMParams",
]


def power_law_weights(
    n: int,
    exponent: float,
    *,
    w_min: float = 1.0,
    w_max: float | None = None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` weights from a bounded Pareto distribution.

    ``P(w) ∝ w^-exponent`` on ``[w_min, w_max]``. Used as expected degrees;
    the ratio ``w_max / w_min`` controls degree skew (Amazon-like profiles
    use a large ratio, PPI-like profiles a small one).
    """
    if exponent <= 1.0:
        raise ValueError("power-law exponent must exceed 1")
    if w_max is None:
        w_max = w_min * n ** 0.5
    if w_max < w_min:
        raise ValueError("w_max must be >= w_min")
    u = rng.random(n)
    a = 1.0 - exponent
    # Inverse-CDF sampling of the truncated Pareto.
    lo, hi = w_min**a, w_max**a
    return (lo + u * (hi - lo)) ** (1.0 / a)


@dataclass(frozen=True)
class DCSBMParams:
    """Parameters of the degree-corrected stochastic block model.

    Attributes
    ----------
    num_vertices:
        Total vertex count ``n``.
    num_blocks:
        Number of planted communities ``K``.
    avg_degree:
        Target average (undirected) degree.
    exponent:
        Power-law exponent of the degree weights (typ. 2.1–3.0).
    mixing:
        Fraction of edge endpoints that ignore community structure
        (0 = perfectly assortative, 1 = no community signal). Typical
        learnable profiles use 0.1–0.4.
    max_weight_ratio:
        ``w_max / w_min`` of the weight distribution; drives skew.
    block_sizes:
        Optional explicit block sizes (must sum to ``num_vertices``);
        defaults to near-equal blocks.
    """

    num_vertices: int
    num_blocks: int
    avg_degree: float
    exponent: float = 2.5
    mixing: float = 0.2
    max_weight_ratio: float = 100.0
    block_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_vertices <= 0 or self.num_blocks <= 0:
            raise ValueError("num_vertices and num_blocks must be positive")
        if self.num_blocks > self.num_vertices:
            raise ValueError("more blocks than vertices")
        if not (0.0 <= self.mixing <= 1.0):
            raise ValueError("mixing must lie in [0, 1]")
        if self.avg_degree <= 0:
            raise ValueError("avg_degree must be positive")
        if self.block_sizes is not None and sum(self.block_sizes) != self.num_vertices:
            raise ValueError("block_sizes must sum to num_vertices")


def _default_block_sizes(n: int, k: int) -> np.ndarray:
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    return sizes


def dcsbm_graph(
    params: DCSBMParams, *, rng: np.random.Generator
) -> tuple[CSRGraph, np.ndarray]:
    """Sample a degree-corrected SBM.

    Returns ``(graph, block_assignment)`` where ``block_assignment[v]`` is
    the planted community of vertex ``v``. The graph is undirected, simple
    (no self-loops, no parallel edges), and its average degree approximates
    ``params.avg_degree`` (sampling + dedup shave a few percent).
    """
    n, k = params.num_vertices, params.num_blocks
    sizes = (
        np.asarray(params.block_sizes, dtype=np.int64)
        if params.block_sizes is not None
        else _default_block_sizes(n, k)
    )
    blocks = np.repeat(np.arange(k, dtype=np.int32), sizes)
    # Shuffle so that vertex id carries no block information (several tests
    # and the feature generator rely on label order independence).
    perm = rng.permutation(n)
    blocks = blocks[perm]

    weights = power_law_weights(
        n,
        params.exponent,
        w_min=1.0,
        w_max=params.max_weight_ratio,
        rng=rng,
    )

    total_endpoints = params.avg_degree * n  # directed edge endpoints
    target_edges = int(round(total_endpoints / 2.0))
    # Split the edge budget: a `mixing` fraction is wired globally
    # (Chung–Lu over all vertices), the rest within blocks.
    m_between = int(round(target_edges * params.mixing))
    m_within = target_edges - m_between

    edge_chunks: list[np.ndarray] = []
    if m_between > 0:
        p_global = weights / weights.sum()
        src = rng.choice(n, size=m_between, p=p_global)
        dst = rng.choice(n, size=m_between, p=p_global)
        edge_chunks.append(np.column_stack((src, dst)))
    if m_within > 0:
        # Per-block budgets proportional to within-block weight mass.
        block_mass = np.bincount(blocks, weights=weights, minlength=k)
        frac = block_mass / block_mass.sum()
        budgets = rng.multinomial(m_within, frac)
        order = np.argsort(blocks, kind="stable")
        sorted_blocks = blocks[order]
        boundaries = np.searchsorted(sorted_blocks, np.arange(k + 1))
        for b in range(k):
            mb = int(budgets[b])
            members = order[boundaries[b] : boundaries[b + 1]]
            if mb == 0 or members.size < 2:
                continue
            w = weights[members]
            p = w / w.sum()
            src = members[rng.choice(members.size, size=mb, p=p)]
            dst = members[rng.choice(members.size, size=mb, p=p)]
            edge_chunks.append(np.column_stack((src, dst)))

    if edge_chunks:
        edges = np.concatenate(edge_chunks, axis=0)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    graph = edges_to_csr(edges, n, symmetrize=True, dedup=True, drop_self_loops=True)
    graph = ensure_min_degree(graph, 1, rng=rng)
    return graph, blocks


def ensure_min_degree(
    graph: CSRGraph, min_degree: int, *, rng: np.random.Generator
) -> CSRGraph:
    """Attach random edges so every vertex has degree >= ``min_degree``.

    The frontier sampler requires every vertex to have at least one
    neighbor (Algorithm 2, line 5 draws a uniform neighbor of the popped
    vertex); real datasets satisfy this after preprocessing, and the
    generators enforce it here.
    """
    n = graph.num_vertices
    deficit = min_degree - graph.degrees
    needy = np.flatnonzero(deficit > 0)
    if needy.size == 0:
        return graph
    extra_src = np.repeat(needy, deficit[needy].astype(np.int64))
    extra_dst = rng.integers(0, n, size=extra_src.size)
    # Avoid accidental self-loops on the patch edges.
    clash = extra_dst == extra_src
    extra_dst[clash] = (extra_dst[clash] + 1) % n
    edges = np.concatenate(
        [graph.edge_list(), np.column_stack((extra_src, extra_dst))], axis=0
    )
    return edges_to_csr(edges, n, symmetrize=True, dedup=True, drop_self_loops=True)


def ring_of_cliques(num_cliques: int, clique_size: int) -> CSRGraph:
    """Deterministic ring-of-cliques graph (test fixture).

    ``num_cliques`` cliques of ``clique_size`` vertices each; clique ``i``
    is bridged to clique ``i+1 mod num_cliques`` by a single edge. Useful
    for connectivity-preservation tests: it has an obvious community
    structure and known clustering coefficients.
    """
    if num_cliques < 1 or clique_size < 2:
        raise ValueError("need >= 1 cliques of size >= 2")
    n = num_cliques * clique_size
    edges = []
    for c in range(num_cliques):
        base = c * clique_size
        members = np.arange(base, base + clique_size)
        iu, ju = np.triu_indices(clique_size, k=1)
        edges.append(np.column_stack((members[iu], members[ju])))
    if num_cliques > 1:
        bridges = np.array(
            [
                (c * clique_size, ((c + 1) % num_cliques) * clique_size + 1)
                for c in range(num_cliques)
            ]
        )
        if num_cliques == 2:
            bridges = bridges[:1]
        edges.append(bridges)
    return edges_to_csr(np.concatenate(edges, axis=0), n)


def grid_graph(rows: int, cols: int) -> CSRGraph:
    """Deterministic 2-D grid graph (test fixture with known structure)."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    idx = np.arange(rows * cols).reshape(rows, cols)
    right = np.column_stack((idx[:, :-1].ravel(), idx[:, 1:].ravel()))
    down = np.column_stack((idx[:-1, :].ravel(), idx[1:, :].ravel()))
    return edges_to_csr(np.concatenate([right, down], axis=0), rows * cols)
