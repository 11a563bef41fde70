"""GraphSAGE baseline: edge-based layer sampling (reference [2]).

For every minibatch of target vertices, a fixed ``fanout`` of neighbors is
sampled per node per layer, producing a tree of supports whose size grows
multiplicatively with depth — the "neighbor explosion" of Section II-A.
The support sizes of every iteration are recorded, which is the measured
quantity behind the paper's Case-1 complexity analysis and Table II.

Evaluation runs the exact (un-sampled) computation: a full block whose
neighbor lists are the whole adjacency, equivalent to the GCN forward pass
with the same weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.datasets import Dataset
from ..nn.init import xavier_uniform
from ..nn.layers import DenseLayer
from ..nn.loss import make_loss
from ..nn.metrics import accuracy, f1_macro, f1_micro
from ..nn.optim import Adam, ParamGroup
from ..train.evaluation import EvalResult
from ..train.trainer import EpochRecord, TrainResult
from .blocks import SampledBlock, positions_in
from .sage_layers import BipartiteGCNLayer

__all__ = ["SageConfig", "GraphSAGEModel", "GraphSAGETrainer", "sample_supports", "full_block"]


@dataclass(frozen=True)
class SageConfig:
    """GraphSAGE training hyperparameters."""

    hidden_dims: tuple[int, ...] = (128, 128)
    fanouts: tuple[int, ...] = (25, 10)
    batch_size: int = 256
    lr: float = 0.01
    epochs: int = 10
    eval_every: int = 1
    concat: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.fanouts) != len(self.hidden_dims):
            raise ValueError("need one fanout per layer")
        if min(self.fanouts) < 1 or self.batch_size < 1:
            raise ValueError("fanouts and batch_size must be positive")


def sample_supports(
    graph: CSRGraph,
    batch: np.ndarray,
    fanouts: tuple[int, ...],
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], list[SampledBlock]]:
    """Sample the layered supports of a minibatch, deepest first.

    Returns ``(supports, blocks)`` where ``supports[0]`` is the layer-0
    (input) support and ``blocks[l]`` maps ``supports[l]`` to
    ``supports[l+1]``; ``supports[-1]`` equals the (unique, sorted) batch.
    """
    if np.any(graph.degrees == 0):
        raise ValueError("layer sampling requires min degree >= 1")
    supports = [np.unique(np.asarray(batch, dtype=np.int64))]
    blocks_rev: list[SampledBlock] = []
    for fanout in reversed(fanouts):
        dst = supports[0]
        starts = graph.indptr[dst]
        degs = graph.indptr[dst + 1] - starts
        offsets = rng.integers(0, degs[:, None], size=(dst.shape[0], fanout))
        nbrs = graph.indices[starts[:, None] + offsets]
        src = np.unique(np.concatenate([dst, nbrs.ravel()]))
        block = SampledBlock(
            num_src=src.shape[0],
            num_dst=dst.shape[0],
            indptr=np.arange(0, dst.shape[0] * fanout + 1, fanout, dtype=np.int64),
            neighbor_pos=positions_in(src, nbrs.ravel().astype(np.int64)),
            self_pos=positions_in(src, dst),
        )
        blocks_rev.append(block)
        supports.insert(0, src)
    return supports, blocks_rev[::-1]


def full_block(graph: CSRGraph) -> SampledBlock:
    """Exact (no sampling) block over the whole graph, for evaluation."""
    n = graph.num_vertices
    return SampledBlock(
        num_src=n,
        num_dst=n,
        indptr=graph.indptr.copy(),
        neighbor_pos=graph.indices.astype(np.int64),
        self_pos=np.arange(n, dtype=np.int64),
    )


class GraphSAGEModel:
    """Stack of bipartite GCN layers + dense head."""

    def __init__(
        self,
        in_dim: int,
        hidden_dims: tuple[int, ...],
        num_classes: int,
        *,
        concat: bool = True,
        seed: int = 0,
        dtype=np.float64,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self.layers: list[BipartiteGCNLayer] = []
        dim = in_dim
        for h in hidden_dims:
            layer = BipartiteGCNLayer(
                dim, h, concat=concat, rng=rng, dtype=self.dtype
            )
            self.layers.append(layer)
            dim = layer.output_dim
        self.head = DenseLayer(dim, num_classes, rng=rng, dtype=self.dtype)
        self.in_dim = in_dim
        self.num_classes = num_classes

    def parameter_groups(self) -> list[ParamGroup]:
        """(params, grads) dict pairs for every layer plus the head."""
        groups: list[ParamGroup] = [(l.params, l.grads) for l in self.layers]
        groups.append((self.head.params, self.head.grads))
        return groups

    def forward(
        self,
        h: np.ndarray,
        blocks: list[SampledBlock],
        *,
        train: bool = True,
    ) -> np.ndarray:
        """Forward through one block per layer; returns batch logits."""
        if len(blocks) != len(self.layers):
            raise ValueError("need one block per layer")
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


@dataclass
class SupportStats:
    """Per-iteration support sizes (the neighbor-explosion measurements)."""

    nodes_per_layer: list[list[int]] = field(default_factory=list)
    edges_per_layer: list[list[int]] = field(default_factory=list)

    def record(self, supports: list[np.ndarray], blocks: list[SampledBlock]) -> None:
        """Append one iteration's support-node and block-edge counts."""
        self.nodes_per_layer.append([int(s.shape[0]) for s in supports])
        self.edges_per_layer.append([int(b.num_edges) for b in blocks])

    def mean_total_nodes(self) -> float:
        """Mean, over iterations, of the summed per-layer support sizes."""
        if not self.nodes_per_layer:
            return 0.0
        return float(np.mean([sum(row) for row in self.nodes_per_layer]))

    def mean_input_support(self) -> float:
        """Mean size of the deepest (layer-0) support across iterations."""
        if not self.nodes_per_layer:
            return 0.0
        return float(np.mean([row[0] for row in self.nodes_per_layer]))


class GraphSAGETrainer:
    """Minibatch GraphSAGE training on the training graph."""

    def __init__(self, dataset: Dataset, config: SageConfig) -> None:
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
        self.model = GraphSAGEModel(
            dataset.features.shape[1],
            config.hidden_dims,
            dataset.num_classes,
            concat=config.concat,
            seed=config.seed,
        )
        self.loss = make_loss(dataset.task)
        self.optimizer = Adam(lr=config.lr)
        self.support_stats = SupportStats()
        self._eval_block = full_block(dataset.graph)

    def train_iteration(self, batch: np.ndarray) -> float:
        """One sampled-support update; returns the minibatch loss."""
        supports, blocks = sample_supports(
            self.train_graph, batch, self.config.fanouts, self.rng
        )
        self.support_stats.record(supports, blocks)
        feats = self.train_features[supports[0]]
        labels = self.train_labels[supports[-1]]
        logits = self.model.forward(feats, blocks, train=True)
        batch_loss = self.loss.forward(logits, labels)
        self.model.backward(self.loss.backward(logits, labels))
        self.optimizer.step(self.model.parameter_groups())
        return batch_loss

    def evaluate(self, split: str = "val") -> EvalResult:
        """Exact (un-sampled) full-neighborhood evaluation on a split."""
        idx = {
            "train": self.dataset.train_idx,
            "val": self.dataset.val_idx,
            "test": self.dataset.test_idx,
        }[split]
        blocks = [self._eval_block] * len(self.model.layers)
        logits = self.model.forward(
            self.dataset.features, blocks, train=False
        )[idx]
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
        """Run minibatch training; returns per-epoch records."""
        cfg = self.config
        total_epochs = epochs if epochs is not None else cfg.epochs
        result = TrainResult()
        n_train = self.train_graph.num_vertices
        wall_total = 0.0
        for epoch in range(total_epochs):
            t0 = time.perf_counter()
            order = self.rng.permutation(n_train)
            losses = []
            for lo in range(0, n_train, cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                losses.append(self.train_iteration(batch))
                result.iterations += 1
            wall_total += time.perf_counter() - t0
            val = (
                self.evaluate("val") if (epoch + 1) % cfg.eval_every == 0 else None
            )
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
