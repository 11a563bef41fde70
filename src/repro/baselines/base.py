"""The shell shared by the Figure 2 baselines.

GraphSAGE, FastGCN and Batched GCN differ in how a minibatch of training
vertices becomes a weight update and in how the exact (un-sampled) forward
pass is computed; everything around that is one thing. A baseline supplies

* its sampler (``sample_supports``, ``_sample_blocks``, or none),
* ``train_iteration(batch)`` — one update from one minibatch,
* ``full_logits()`` — exact logits for every vertex of the full graph,

and :class:`MinibatchBaseline` owns the rest: the rng, the training view
(the same patched training graph the proposed method samples from), the
loss and optimizer, the shuffled-minibatch epoch loop and split scoring.
:class:`BlockModel` is the one layer stack of the two layer-sampling
baselines, which differ only in the layer class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..graphs.datasets import Dataset, training_view
from ..nn.layers import DenseLayer
from ..nn.loss import make_loss
from ..nn.optim import Adam, ParamGroup
from ..train.evaluation import EvalResult, score_split
from ..train.trainer import EpochRecord, TrainResult
from .blocks import SampledBlock

__all__ = ["BaselineConfig", "BlockModel", "MinibatchBaseline"]


@dataclass(frozen=True)
class BaselineConfig:
    """The hyperparameters every minibatch baseline has."""

    hidden_dims: tuple[int, ...] = (128, 128)
    batch_size: int = 256
    lr: float = 0.01
    epochs: int = 10
    eval_every: int = 1
    seed: int = 0


class BlockModel:
    """Stack of ``layer_class`` block layers + dense head.

    Subclasses name the layer class. Layers and head draw their initial
    weights from the one ``seed`` stream, in order.
    """

    layer_class: type

    def __init__(
        self,
        in_dim: int,
        hidden_dims: tuple[int, ...],
        num_classes: int,
        *,
        seed: int = 0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.layers = []
        dim = in_dim
        for h in hidden_dims:
            layer = self.layer_class(dim, h, rng=rng)
            self.layers.append(layer)
            dim = layer.output_dim
        self.head = DenseLayer(dim, num_classes, rng=rng)
        self.in_dim = in_dim
        self.num_classes = num_classes

    def parameter_groups(self) -> list[ParamGroup]:
        """(params, grads) dict pairs for every layer plus the head."""
        groups: list[ParamGroup] = [(l.params, l.grads) for l in self.layers]
        groups.append((self.head.params, self.head.grads))
        return groups

    def forward(
        self, h: np.ndarray, blocks: list[SampledBlock], *, train: bool = True
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


class MinibatchBaseline:
    """Shuffled-minibatch training on the training graph.

    Subclasses build ``self.model`` and implement :meth:`train_iteration`
    and :meth:`full_logits`.
    """

    #: Wall seconds spent before the first epoch, charged to the curve up
    #: front (FastGCN's importance distribution).
    preprocessing_seconds = 0.0

    def __init__(self, dataset: Dataset, config: BaselineConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.train_graph, self.train_vmap = training_view(dataset, self.rng)
        self.train_features = dataset.features[self.train_vmap]
        self.train_labels = dataset.labels[self.train_vmap]
        self.loss = make_loss(dataset.task)
        self.optimizer = Adam(lr=config.lr)

    def train_iteration(self, batch: np.ndarray) -> float:
        """One weight update from one minibatch of training-graph vertex
        ids; returns the minibatch loss."""
        raise NotImplementedError

    def full_logits(self) -> np.ndarray:
        """Exact (un-sampled) logits of every full-graph vertex."""
        raise NotImplementedError

    def evaluate(self, split: str = "val") -> EvalResult:
        """Exact full-graph evaluation on a split (no sampling)."""
        return score_split(self.dataset, self.loss, self.full_logits(), split)

    def train(self) -> TrainResult:
        """Run ``config.epochs`` of minibatch training; returns per-epoch
        records. Wall time starts at :attr:`preprocessing_seconds`."""
        cfg = self.config
        result = TrainResult()
        n_train = self.train_graph.num_vertices
        wall_total = self.preprocessing_seconds
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            order = self.rng.permutation(n_train)
            losses = []
            for lo in range(0, n_train, cfg.batch_size):
                losses.append(self.train_iteration(order[lo : lo + cfg.batch_size]))
                result.iterations += 1
            wall_total += time.perf_counter() - t0
            val = self.evaluate("val") if (epoch + 1) % cfg.eval_every == 0 else None
            result.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=float(np.mean(losses)),
                    wall_seconds_total=wall_total,
                    val=val,
                )
            )
        return result
