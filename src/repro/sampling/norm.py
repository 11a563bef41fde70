"""GraphSAINT loss normalization: inclusion probabilities → loss weights.

The follow-up paper ("Accurate, Efficient and Scalable Training of Graph
Neural Networks", PAPERS.md) trains on sampled subgraphs with
bias-correction coefficients derived from the sampler's inclusion
probabilities. The trainer applies the loss normalization: the
full-graph objective is ``L = (1/n) * sum_v L_v``; a subgraph minibatch
estimates it by ``sum_{v in G_s} lambda_v L_v`` with
``lambda_v = 1 / (n * p_v)`` where ``p_v = P(v in G_s)``. Taking
expectations, ``E[sum_{v in G_s} lambda_v L_v] = L`` — the estimator is
unbiased for *any* sampler, and the expected total batch weight is
exactly 1, so gradient magnitudes stay comparable to the plain batch
mean. (The paper's second family, the per-edge aggregation coefficients
``alpha_{u,v}``, is not implemented.)

Closed forms exist for the two edge samplers (per-edge draw/keep
probabilities are known exactly); the frontier and random-walk samplers
get *empirical* coefficients the way the follow-up paper's preprocessing
does — count vertex appearances over a pre-sampling pass of ``K``
subgraphs and use the observed frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from .base import GraphSampler

__all__ = [
    "NormCoefficients",
    "edge_sampling_weights",
    "independent_edge_coefficients",
    "edge_draw_coefficients",
    "empirical_coefficients",
    "loss_weights_from_probs",
]

#: Stream tag mixed into the empirical pre-sampling SeedSequence so its
#: subgraphs are decorrelated from training subgraphs drawn at the same
#: user seed (the pool uses ``SeedSequence(seed, spawn_key=(i,))``;
#: estimating probabilities from the very subgraphs later trained on
#: would bias the correction).
_NORM_STREAM = 0x5A17


@dataclass(frozen=True)
class NormCoefficients:
    """Per-node normalization coefficients of one sampler.

    Attributes
    ----------
    node_prob:
        ``float64[n]`` — ``p_v``, the probability vertex ``v`` appears in
        one sampled subgraph (empirical frequency for the empirical
        method).
    loss_weight:
        ``float64[n]`` — ``lambda_v = 1 / (n * p_v)``; multiply each
        subgraph vertex's loss term by its weight and *sum* (no batch
        mean) for an unbiased full-graph loss estimate.
    method:
        ``"closed_form"`` or ``"empirical"``.
    """

    node_prob: np.ndarray
    loss_weight: np.ndarray
    method: str

    @property
    def expected_batch_weight(self) -> float:
        """``E[sum of loss weights over one subgraph]`` — 1.0 when exact."""
        return float((self.node_prob * self.loss_weight).sum())


def edge_sampling_weights(
    graph: CSRGraph,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Undirected edge list + GraphSAINT edge weights.

    Returns ``(und_src, und_dst, w)`` where each stored undirected edge
    ``{u, v}`` (``u <= v``, taken from the CSR's directed slots) carries
    the follow-up paper's weight ``w_e = 1/deg(u) + 1/deg(v)`` — the
    probability-proportional weighting that makes the edge samplers'
    minibatch gradient variance small.
    """
    src = graph.edge_sources()
    dst = graph.indices
    mask = src <= dst
    und_src = src[mask].astype(np.int64)
    und_dst = dst[mask].astype(np.int64)
    if und_src.size == 0:
        raise ValueError("graph has no edges to weight")
    deg = graph.degrees.astype(np.float64)
    w = 1.0 / deg[und_src] + 1.0 / deg[und_dst]
    return und_src, und_dst, w


def loss_weights_from_probs(
    node_prob: np.ndarray, *, floor: float | None = None
) -> np.ndarray:
    """``lambda_v = 1 / (n * p_v)`` with safe handling of ``p_v = 0``.

    Vertices the sampler can never (or empirically never did) include get
    the neutral uniform weight ``1/n`` — they contribute to no batch, so
    any finite value preserves unbiasedness. ``floor`` optionally clips
    tiny probabilities from below, bounding the largest weight at
    ``1 / (n * floor)`` (the empirical method uses ``1/K`` resolution, so
    a floor guards against a single lucky appearance exploding a weight).
    """
    p = np.asarray(node_prob, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("node_prob must be a non-empty 1-D array")
    if np.any(p < 0.0) or np.any(p > 1.0 + 1e-12):
        raise ValueError("node_prob values must lie in [0, 1]")
    n = p.size
    eff = p.copy()
    if floor is not None:
        if floor <= 0.0:
            raise ValueError("floor must be positive")
        np.maximum(eff, floor, out=eff)
    lam = np.empty(n, dtype=np.float64)
    seen = eff > 0.0
    lam[seen] = 1.0 / (n * eff[seen])
    lam[~seen] = 1.0 / n
    return lam


def independent_edge_coefficients(graph: CSRGraph, edge_budget: int) -> NormCoefficients:
    """Closed-form coefficients for independent per-edge Bernoulli sampling.

    Each undirected edge is kept independently with
    ``p_e = min(1, edge_budget * w_e / sum(w))``; a vertex appears iff at
    least one incident edge is kept, so
    ``p_v = 1 - prod_{e : v in e} (1 - p_e)`` (self-loops count once).
    """
    if edge_budget <= 0:
        raise ValueError("edge_budget must be positive")
    und_src, und_dst, w = edge_sampling_weights(graph)
    p_e = np.minimum(1.0, edge_budget * w / w.sum())
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-p_e)  # -inf where p_e == 1 -> p_v == 1
    n = graph.num_vertices
    acc = np.bincount(und_src, weights=log_miss, minlength=n)
    non_loop = und_src != und_dst
    acc += np.bincount(und_dst[non_loop], weights=log_miss[non_loop], minlength=n)
    node_prob = -np.expm1(acc)
    return NormCoefficients(
        node_prob=node_prob,
        loss_weight=loss_weights_from_probs(node_prob),
        method="closed_form",
    )


def edge_draw_coefficients(graph: CSRGraph, num_draws: int) -> NormCoefficients:
    """Closed-form coefficients for with-replacement weighted edge draws.

    ``num_draws`` i.i.d. draws from ``q_e = w_e / sum(w)``; a vertex is
    missed only when every draw avoids all of its incident edges, so
    ``p_v = 1 - (1 - Q_v)^D`` with ``Q_v = sum_{e : v in e} q_e``.
    """
    if num_draws <= 0:
        raise ValueError("num_draws must be positive")
    und_src, und_dst, w = edge_sampling_weights(graph)
    q = w / w.sum()
    n = graph.num_vertices
    q_v = np.bincount(und_src, weights=q, minlength=n)
    non_loop = und_src != und_dst
    q_v += np.bincount(und_dst[non_loop], weights=q[non_loop], minlength=n)
    with np.errstate(divide="ignore"):
        node_prob = -np.expm1(num_draws * np.log1p(-np.minimum(q_v, 1.0)))
    return NormCoefficients(
        node_prob=node_prob,
        loss_weight=loss_weights_from_probs(node_prob),
        method="closed_form",
    )


def empirical_coefficients(
    sampler: GraphSampler,
    *,
    num_subgraphs: int = 32,
    seed: int = 0,
) -> NormCoefficients:
    """Pre-sampling estimation of the coefficients for any sampler.

    Runs the sampler ``num_subgraphs`` times on its own deterministic
    seed stream (one :class:`numpy.random.SeedSequence` child per
    subgraph, independent of training seeds) and uses appearance
    frequencies as the inclusion probabilities — exactly the follow-up
    paper's preprocessing for samplers without closed forms (frontier,
    random walk).

    The loss weights are floored at one appearance in ``num_subgraphs``
    so resolution-limited estimates cannot explode a single weight.
    """
    if num_subgraphs < 1:
        raise ValueError("num_subgraphs must be >= 1")
    graph = sampler.graph
    n = graph.num_vertices
    node_counts = np.zeros(n, dtype=np.float64)
    root = np.random.SeedSequence((seed, _NORM_STREAM))
    for child in root.spawn(num_subgraphs):
        sub = sampler.sample(np.random.default_rng(child))
        node_counts[sub.vertex_map] += 1.0
    node_prob = node_counts / num_subgraphs
    return NormCoefficients(
        node_prob=node_prob,
        loss_weight=loss_weights_from_probs(node_prob, floor=1.0 / num_subgraphs),
        method="empirical",
    )
