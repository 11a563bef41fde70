"""FastGCN baseline: node-based layer sampling (reference [3]).

Two-phase sampling per Section II-A: (1) every layer's node set is drawn
i.i.d. from a *precomputed* importance distribution ``q(v) ∝ ||A_hat[:,
v]||^2`` (the expensive preprocessing the paper charges FastGCN with); (2)
inter-layer edges are reconstructed as the original-graph edges between
consecutive sampled sets, importance-rescaled by ``1 / (t_l * q(u))`` so
the aggregation is an unbiased estimator of the full convolution.

Destinations whose neighborhoods miss the sampled source set entirely
aggregate to zero — the "overly sparse inter-layer connection" failure mode
the paper attributes to deeper FastGCN models. The per-iteration fraction
of such starved nodes is recorded in :attr:`FastGCNTrainer.starvation`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.datasets import Dataset
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from .base import BaselineConfig, BlockModel, MinibatchBaseline
from .blocks import SampledBlock, positions_in
from .sage_layers import ConvOnlyLayer

__all__ = ["FastGCNConfig", "FastGCNModel", "FastGCNTrainer", "importance_distribution"]


def importance_distribution(graph: CSRGraph) -> np.ndarray:
    """FastGCN's sampling distribution: ``q(v) ∝ ||A_hat[:, v]||^2``.

    With ``A_hat = D^{-1} A`` (mean aggregation), column ``v`` holds
    ``1/deg(u)`` for every in-neighbor ``u``, so the squared column norm is
    ``sum_{u in N(v)} 1/deg(u)^2``. One pass over the edges.
    """
    deg = graph.degrees.astype(np.float64)
    inv_deg_sq = np.divide(1.0, deg * deg, out=np.zeros_like(deg), where=deg > 0)
    q = np.zeros(graph.num_vertices, dtype=np.float64)
    np.add.at(q, graph.indices, inv_deg_sq[graph.edge_sources()])
    total = q.sum()
    if total == 0.0:
        raise ValueError("graph has no edges")
    return q / total


@dataclass(frozen=True)
class FastGCNConfig(BaselineConfig):
    """FastGCN training hyperparameters."""

    layer_sizes: tuple[int, ...] = (400, 400)  # t_l per hidden layer

    def __post_init__(self) -> None:
        if len(self.layer_sizes) != len(self.hidden_dims):
            raise ValueError("need one layer size per hidden layer")
        if min(self.layer_sizes) < 1 or self.batch_size < 1:
            raise ValueError("layer sizes and batch_size must be positive")


def _importance_block(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    q: np.ndarray,
    t_src: int,
) -> SampledBlock:
    """Edges of ``graph`` between sampled ``src`` and ``dst`` sets, with
    importance-sampling weights ``A_hat(v, u) / (t_src * q(u))``."""
    in_src = np.zeros(graph.num_vertices, dtype=bool)
    in_src[src] = True
    nbr_chunks: list[np.ndarray] = []
    counts = np.empty(dst.shape[0], dtype=np.int64)
    for i, v in enumerate(dst):
        nbrs = graph.neighbors(int(v))
        kept = nbrs[in_src[nbrs]]
        counts[i] = kept.shape[0]
        if kept.shape[0]:
            nbr_chunks.append(kept.astype(np.int64))
    kept_all = (
        np.concatenate(nbr_chunks) if nbr_chunks else np.empty(0, dtype=np.int64)
    )
    indptr = np.zeros(dst.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    inv_deg = 1.0 / graph.degrees[dst].astype(np.float64)
    weights = (
        np.repeat(inv_deg, counts) / (t_src * q[kept_all])
        if kept_all.size
        else np.empty(0, dtype=np.float64)
    )
    return SampledBlock(
        num_src=src.shape[0],
        num_dst=dst.shape[0],
        indptr=indptr,
        neighbor_pos=positions_in(np.sort(src), kept_all) if kept_all.size else kept_all,
        self_pos=np.full(dst.shape[0], -1, dtype=np.int64),
        edge_weight=weights,
        mean_normalize=False,
    )


class FastGCNModel(BlockModel):
    """Stack of single-weight convolution layers + dense head."""

    layer_class = ConvOnlyLayer


class FastGCNTrainer(MinibatchBaseline):
    """Minibatch FastGCN training on the training graph; the wall clock
    of :meth:`train` starts at the importance-distribution preprocessing."""

    def __init__(self, dataset: Dataset, config: FastGCNConfig) -> None:
        super().__init__(dataset, config)
        with span("fastgcn.preprocess") as prep_sp:
            t0 = time.perf_counter()
            self.q = importance_distribution(self.train_graph)
            self.preprocessing_seconds = time.perf_counter() - t0
        if obs_enabled():
            prep_sp.set(vertices=self.train_graph.num_vertices)
            obs_metrics.observe(
                "fastgcn.preprocess_seconds", self.preprocessing_seconds
            )
        self.model = FastGCNModel(
            dataset.features.shape[1],
            config.hidden_dims,
            dataset.num_classes,
            seed=config.seed,
        )
        self.starvation: list[float] = []

    def _sample_blocks(
        self, batch: np.ndarray
    ) -> tuple[np.ndarray, list[SampledBlock]]:
        cfg = self.config
        n = self.train_graph.num_vertices
        sets: list[np.ndarray] = [np.unique(batch)]
        for t in reversed(cfg.layer_sizes):
            t_eff = min(t, n)
            src = np.unique(
                self.rng.choice(n, size=t_eff, replace=True, p=self.q)
            )
            sets.insert(0, src)
        blocks: list[SampledBlock] = []
        for l in range(len(sets) - 1):
            src, dst = sets[l], sets[l + 1]
            block = _importance_block(
                self.train_graph, src, dst, self.q, max(src.shape[0], 1)
            )
            blocks.append(block)
            starved = float(np.mean(block.degrees == 0)) if block.num_dst else 0.0
            self.starvation.append(starved)
        return sets[0], blocks

    def train_iteration(self, batch: np.ndarray) -> float:
        """One two-phase-sampled update; returns the minibatch loss."""
        src0, blocks = self._sample_blocks(batch)
        feats = self.train_features[src0]
        labels = self.train_labels[np.unique(batch)]
        logits = self.model.forward(feats, blocks, train=True)
        batch_loss = self.loss.forward(logits, labels)
        self.model.backward(self.loss.backward(logits, labels))
        self.optimizer.step(self.model.parameter_groups())
        return batch_loss

    def full_logits(self) -> np.ndarray:
        """Exact convolution: every layer applies the full ``D^{-1} A``."""
        graph = self.dataset.graph
        n = graph.num_vertices
        exact = SampledBlock(
            num_src=n,
            num_dst=n,
            indptr=graph.indptr.copy(),
            neighbor_pos=graph.indices.astype(np.int64),
            self_pos=np.full(n, -1, dtype=np.int64),
            edge_weight=np.repeat(
                1.0 / np.maximum(graph.degrees, 1), graph.degrees
            ).astype(np.float64),
            mean_normalize=False,
        )
        blocks = [exact] * len(self.model.layers)
        return self.model.forward(self.dataset.features, blocks, train=False)
