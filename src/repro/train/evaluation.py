"""Model evaluation on the full graph.

The graph-sampling design trains on small subgraphs but evaluates like any
GCN: one full-graph forward pass with the trained weights (the subgraph GCN
and the full GCN share weights — Section III-A), then F1 on the requested
split. What that pass reads besides the weights — the full graph's
aggregator, the features in the model's dtype and their aggregate
``A_hat X`` — comes from :func:`repro.propagation.spmm.full_graph_input`,
which computes it once per dataset: every evaluation after the first runs
``L - 1`` SpMMs, not ``L``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.datasets import Dataset
from ..nn.loss import make_loss
from ..nn.metrics import accuracy, f1_macro, f1_micro
from ..nn.network import GCN
from ..propagation.spmm import full_graph_input

__all__ = ["EvalResult", "Evaluator", "score_split"]


@dataclass(frozen=True)
class EvalResult:
    loss: float
    f1_micro: float
    f1_macro: float
    accuracy: float
    split: str


def score_split(dataset: Dataset, loss, full_logits: np.ndarray, split: str) -> EvalResult:
    """Loss and F1 of full-graph ``full_logits`` on one split of ``dataset``."""
    if split not in ("train", "val", "test"):
        raise ValueError(f"unknown split {split!r}")
    idx = getattr(dataset, f"{split}_idx")
    logits = full_logits[idx]
    labels = dataset.labels[idx]
    preds = loss.predict(logits)
    return EvalResult(
        loss=loss.forward(logits, labels),
        f1_micro=f1_micro(labels, preds, dataset.num_classes),
        f1_macro=f1_macro(labels, preds, dataset.num_classes),
        accuracy=accuracy(labels, preds),
        split=split,
    )


class Evaluator:
    """Full-graph evaluation bound to one dataset."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self._loss = make_loss(dataset.task)

    def full_logits(self, model: GCN) -> np.ndarray:
        """Logits of every vertex from one full-graph forward pass."""
        aggregator, features, aggregate = full_graph_input(self.dataset, model.dtype)
        return model.forward(
            features, aggregator, train=False, input_aggregate=aggregate
        )

    def evaluate(self, model: GCN, split: str = "val") -> EvalResult:
        """Full-graph forward pass + metrics on the requested split."""
        return score_split(self.dataset, self._loss, self.full_logits(model), split)
