"""Batched GCN baseline (reference [1], Kipf & Welling).

The original GCN propagates over the *entire* training graph for every
weight update; mini-batching only masks the loss to a random subset of
training vertices. Each update therefore costs a full-graph forward and
backward pass regardless of batch size — the work-inefficiency that
motivates both layer sampling and this paper's graph sampling.

Reuses the exact same model as the proposed method (:class:`repro.nn.GCN`)
with the full training graph's aggregator, so any accuracy/time difference
in the Figure 2 comparison is attributable to the training scheme alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..graphs.datasets import Dataset
from ..nn.loss import make_loss
from ..nn.network import GCN
from ..nn.optim import Adam
from ..kernels.backends import get_backend
from ..propagation.spmm import MeanAggregator
from ..train.evaluation import Evaluator
from ..train.trainer import EpochRecord, TrainResult

__all__ = ["BatchedGCNConfig", "BatchedGCNTrainer"]


@dataclass(frozen=True)
class BatchedGCNConfig:
    """Batched-GCN training hyperparameters."""

    hidden_dims: tuple[int, ...] = (128, 128)
    batch_size: int = 256
    lr: float = 0.01
    epochs: int = 10
    eval_every: int = 1
    concat: bool = True
    seed: int = 0
    # Kernel-registry SpMM backend for the full-graph propagation
    # ("scipy" or "numpy"); the dispatch seam of repro.kernels.backends.
    spmm_backend: str = "scipy"

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")
        get_backend(self.spmm_backend)


class BatchedGCNTrainer:
    """Full-graph-propagation GCN with mini-batched loss masking."""

    def __init__(self, dataset: Dataset, config: BatchedGCNConfig) -> None:
        self.dataset = dataset
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.train_graph, self.train_vmap = dataset.graph.induced_subgraph(
            dataset.train_idx
        )
        self.train_features = dataset.features[self.train_vmap]
        self.train_labels = dataset.labels[self.train_vmap]
        self.aggregator = MeanAggregator(
            self.train_graph, backend=config.spmm_backend
        )
        self.model = GCN(
            dataset.features.shape[1],
            list(config.hidden_dims),
            dataset.num_classes,
            concat=config.concat,
            seed=config.seed,
        )
        self.loss = make_loss(dataset.task)
        self.optimizer = Adam(lr=config.lr)
        self.evaluator = Evaluator(dataset)

    def train_iteration(self, batch: np.ndarray) -> float:
        """One update: full-graph propagation, loss masked to ``batch``."""
        logits = self.model.forward(self.train_features, self.aggregator, train=True)
        batch_logits = logits[batch]
        batch_labels = self.train_labels[batch]
        batch_loss = self.loss.forward(batch_logits, batch_labels)
        grad = np.zeros_like(logits)
        grad[batch] = self.loss.backward(batch_logits, batch_labels)
        self.model.backward(grad)
        self.optimizer.step(self.model.parameter_groups())
        return batch_loss

    def train(self, *, epochs: int | None = None) -> TrainResult:
        """Run minibatch training (full propagation per update)."""
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
                self.evaluator.evaluate(self.model, "val")
                if (epoch + 1) % cfg.eval_every == 0
                else None
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
