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

from dataclasses import dataclass

import numpy as np

from ..graphs.datasets import Dataset
from ..nn.network import GCN
from ..propagation.spmm import MeanAggregator
from ..train.evaluation import Evaluator
from .base import BaselineConfig, MinibatchBaseline

__all__ = ["BatchedGCNConfig", "BatchedGCNTrainer"]


@dataclass(frozen=True)
class BatchedGCNConfig(BaselineConfig):
    """Batched-GCN training hyperparameters."""

    def __post_init__(self) -> None:
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be positive")


class BatchedGCNTrainer(MinibatchBaseline):
    """Full-graph-propagation GCN with mini-batched loss masking."""

    def __init__(self, dataset: Dataset, config: BatchedGCNConfig) -> None:
        super().__init__(dataset, config)
        self.aggregator = MeanAggregator(self.train_graph)
        self.model = GCN(
            dataset.features.shape[1],
            list(config.hidden_dims),
            dataset.num_classes,
            seed=config.seed,
        )
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

    def full_logits(self) -> np.ndarray:
        """Exact forward of the shared :class:`Evaluator` (the model is the
        proposed method's, so is its full-graph pass)."""
        return self.evaluator.full_logits(self.model)
