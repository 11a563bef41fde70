"""Model evaluation on the full graph.

The graph-sampling design trains on small subgraphs but evaluates like any
GCN: one full-graph forward pass with the trained weights (the subgraph GCN
and the full GCN share weights — Section III-A), then F1 on the requested
split. The aggregator for the full graph is built once and reused across
evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.datasets import Dataset
from ..kernels import ops as kernel_ops
from ..nn.loss import make_loss
from ..nn.metrics import accuracy, f1_macro, f1_micro
from ..nn.network import GCN
from ..propagation.spmm import MeanAggregator

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
    """Full-graph evaluation bound to one dataset.

    Parameters
    ----------
    dataset:
        Evaluation data; the aggregator over its full graph is built once.
    feature_chunk:
        When set, the forward pass processes features ``feature_chunk``
        columns at a time through the *first* layer's aggregation (the
        memory peak on wide-attribute graphs like Reddit's 602 dims). The
        chunking reuses Algorithm 6's partitioned propagator, so results
        are bitwise identical to the unchunked pass.
    dtype:
        When set, features are cast once at construction (the fast
        policy evaluates in float32); ``None`` keeps the dataset dtype.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        feature_chunk: int | None = None,
        dtype=None,
    ) -> None:
        if feature_chunk is not None and feature_chunk < 1:
            raise ValueError("feature_chunk must be >= 1 when set")
        self.dataset = dataset
        self.feature_chunk = feature_chunk
        self._features = (
            dataset.features
            if dtype is None
            else dataset.features.astype(dtype, copy=False)
        )
        self._aggregator = MeanAggregator(dataset.graph)
        self._loss = make_loss(dataset.task)

    def full_logits(self, model: GCN) -> np.ndarray:
        """Logits of every vertex from one full-graph forward pass."""
        if self.feature_chunk is None:
            return model.forward(self._features, self._aggregator, train=False)
        # Chunk only the first aggregation (the widest, and the memory
        # peak); subsequent layers operate on hidden dims and run
        # unchunked. Column chunking commutes with the row-wise spmm, so
        # results match the unchunked pass exactly.
        feats = self._features
        agg = self._aggregator
        first = model.layers[0]
        chunks = []
        for lo in range(0, feats.shape[1], self.feature_chunk):
            chunks.append(agg.forward(feats[:, lo : lo + self.feature_chunk]))
        h_agg = np.concatenate(chunks, axis=1)
        z_neigh = kernel_ops.gemm(h_agg, first.params["W_neigh"])
        z_self = kernel_ops.gemm(feats, first.params["W_self"])
        if first.use_bias:
            z_neigh = z_neigh + first.params["b_neigh"]
            z_self = z_self + first.params["b_self"]
        z = (
            np.concatenate([z_neigh, z_self], axis=1)
            if first.concat
            else z_neigh + z_self
        )
        from ..nn.activations import relu

        h = relu(z) if first.activation == "relu" else z
        for layer in model.layers[1:]:
            h = layer.forward(h, agg, train=False)
        return model.head.forward(h, train=False)

    def evaluate(self, model: GCN, split: str = "val") -> EvalResult:
        """Full-graph forward pass + metrics on the requested split."""
        return score_split(self.dataset, self._loss, self.full_logits(model), split)
