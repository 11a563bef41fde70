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

from dataclasses import dataclass, field

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.datasets import Dataset
from .base import BaselineConfig, BlockModel, MinibatchBaseline
from .blocks import SampledBlock, positions_in
from .sage_layers import BipartiteGCNLayer

__all__ = ["SageConfig", "GraphSAGEModel", "GraphSAGETrainer", "sample_supports", "full_block"]


@dataclass(frozen=True)
class SageConfig(BaselineConfig):
    """GraphSAGE training hyperparameters."""

    fanouts: tuple[int, ...] = (25, 10)

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


class GraphSAGEModel(BlockModel):
    """Stack of bipartite GCN layers + dense head."""

    layer_class = BipartiteGCNLayer


@dataclass
class SupportStats:
    """Per-iteration support sizes (the neighbor-explosion measurements)."""

    nodes_per_layer: list[list[int]] = field(default_factory=list)
    edges_per_layer: list[list[int]] = field(default_factory=list)

    def record(self, supports: list[np.ndarray], blocks: list[SampledBlock]) -> None:
        """Append one iteration's support-node and block-edge counts."""
        self.nodes_per_layer.append([int(s.shape[0]) for s in supports])
        self.edges_per_layer.append([int(b.num_edges) for b in blocks])


class GraphSAGETrainer(MinibatchBaseline):
    """Minibatch GraphSAGE training on the training graph."""

    def __init__(self, dataset: Dataset, config: SageConfig) -> None:
        super().__init__(dataset, config)
        self.model = GraphSAGEModel(
            dataset.features.shape[1],
            config.hidden_dims,
            dataset.num_classes,
            seed=config.seed,
        )
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

    def full_logits(self) -> np.ndarray:
        """Exact forward: every layer aggregates the whole neighborhood."""
        blocks = [self._eval_block] * len(self.model.layers)
        return self.model.forward(self.dataset.features, blocks, train=False)
