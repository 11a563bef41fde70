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
from ..nn.layers import DenseLayer
from ..nn.loss import make_loss
from ..nn.metrics import accuracy, f1_macro, f1_micro
from ..nn.optim import Adam, ParamGroup
from ..train.evaluation import EvalResult
from ..train.trainer import EpochRecord, TrainResult
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
class FastGCNConfig:
    """FastGCN training hyperparameters."""

    hidden_dims: tuple[int, ...] = (128, 128)
    layer_sizes: tuple[int, ...] = (400, 400)  # t_l per hidden layer
    batch_size: int = 256
    lr: float = 0.01
    epochs: int = 10
    eval_every: int = 1
    seed: int = 0

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


class FastGCNModel:
    """Stack of single-weight convolution layers + dense head."""

    def __init__(
        self,
        in_dim: int,
        hidden_dims: tuple[int, ...],
        num_classes: int,
        *,
        seed: int = 0,
        dtype=np.float64,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self.layers: list[ConvOnlyLayer] = []
        dim = in_dim
        for h in hidden_dims:
            layer = ConvOnlyLayer(dim, h, rng=rng, dtype=self.dtype)
            self.layers.append(layer)
            dim = h
        self.head = DenseLayer(dim, num_classes, rng=rng, dtype=self.dtype)

    def parameter_groups(self) -> list[ParamGroup]:
        """(params, grads) dict pairs for every layer plus the head."""
        groups: list[ParamGroup] = [(l.params, l.grads) for l in self.layers]
        groups.append((self.head.params, self.head.grads))
        return groups

    def forward(
        self, h: np.ndarray, blocks: list[SampledBlock], *, train: bool = True
    ) -> np.ndarray:
        """Forward through one importance-weighted block per layer."""
        for layer, block in zip(self.layers, blocks):
            h = layer.forward(h, block, train=train)
        return self.head.forward(h, train=train)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backprop through the blocks of the last training forward, down
        to the first layer's parameters (the input features train nothing)."""
        g = self.head.backward(grad_logits)
        for layer in reversed(self.layers[1:]):
            g = layer.backward(g)
        self.layers[0].backward(g, input_grad=False)


class FastGCNTrainer:
    """Minibatch FastGCN training on the training graph."""

    def __init__(self, dataset: Dataset, config: FastGCNConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.train_graph, self.train_vmap = dataset.graph.induced_subgraph(
            dataset.train_idx
        )
        if np.any(self.train_graph.degrees == 0):
            from ..graphs.generators import ensure_min_degree

            self.train_graph = ensure_min_degree(self.train_graph, 1, rng=self.rng)
        self.train_features = dataset.features[self.train_vmap]
        self.train_labels = dataset.labels[self.train_vmap]
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
        self.loss = make_loss(dataset.task)
        self.optimizer = Adam(lr=config.lr)
        self.starvation: list[float] = []
        self._q_full = importance_distribution(dataset.graph)

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
        feats = self.train_features[np.sort(src0)]
        labels = self.train_labels[np.unique(batch)]
        logits = self.model.forward(feats, blocks, train=True)
        batch_loss = self.loss.forward(logits, labels)
        self.model.backward(self.loss.backward(logits, labels))
        self.optimizer.step(self.model.parameter_groups())
        return batch_loss

    def evaluate(self, split: str = "val") -> EvalResult:
        """Exact-convolution evaluation on a split (no sampling)."""
        idx = {
            "train": self.dataset.train_idx,
            "val": self.dataset.val_idx,
            "test": self.dataset.test_idx,
        }[split]
        graph = self.dataset.graph
        n = graph.num_vertices
        every = np.arange(n, dtype=np.int64)
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
        del every
        blocks = [exact] * len(self.model.layers)
        logits = self.model.forward(self.dataset.features, blocks, train=False)[idx]
        labels = self.dataset.labels[idx]
        preds = self.loss.predict(logits)
        return EvalResult(
            loss=self.loss.forward(logits, labels),
            f1_micro=f1_micro(labels, preds, self.dataset.num_classes),
            f1_macro=f1_macro(labels, preds, self.dataset.num_classes),
            accuracy=accuracy(labels, preds),
            split=split,
        )

    def train(self, *, epochs: int | None = None) -> TrainResult:
        """Run minibatch training; wall time includes preprocessing."""
        cfg = self.config
        total_epochs = epochs if epochs is not None else cfg.epochs
        result = TrainResult()
        n_train = self.train_graph.num_vertices
        wall_total = self.preprocessing_seconds  # charged up front
        for epoch in range(total_epochs):
            t0 = time.perf_counter()
            order = self.rng.permutation(n_train)
            losses = []
            for lo in range(0, n_train, cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                losses.append(self.train_iteration(batch))
                result.iterations += 1
            wall_total += time.perf_counter() - t0
            val = self.evaluate("val") if (epoch + 1) % cfg.eval_every == 0 else None
            result.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=float(np.mean(losses)),
                    wall_seconds_total=wall_total,
                    sim_time_total=0.0,
                    val=val,
                )
            )
        return result
