"""Sparse feature-aggregation adapters (the ``(A^T) H`` step of Algorithm 1).

The GCN's feature-aggregation step computes, for every vertex, the mean of
its neighbors' feature vectors. On the sampled subgraph this is the
dominant irregular kernel (Section V of the paper). The SpMM itself is
one CSR product in :mod:`repro.kernels`; this module names it twice:

* :func:`spmm_sum_scipy` — :func:`repro.kernels.ops.spmm` (scipy CSR
  matvec, C loops, metered). The scipy operator is memoized per graph by
  the kernel layer's adjacency cache, so repeated calls do not rebuild it.
* :func:`spmm_sum_numpy` — the same sum in pure numpy (gather +
  ``add.reduceat``), unmetered: the independent oracle the CSR kernel is
  tested and benchmarked against.

:class:`MeanAggregator` wraps a graph and exposes the forward
mean-aggregation and its adjoint for backpropagation. For an undirected
graph with row-mean normalization ``M = D^{-1} A``, the adjoint is
``M^T G = A (D^{-1} G)`` because ``A`` is symmetric. Flop/op counting
happens inside :mod:`repro.kernels.accounting` — not here.

:func:`full_graph_input` is the one owner of what full-graph inference
reads that no weight can change: a dataset's :class:`MeanAggregator`, its
features in the model's dtype and their aggregate ``A_hat X`` — the widest
SpMM of an inference pass, run once per (dataset, dtype) instead of once
per ``compute_embeddings`` / ``Evaluator.full_logits`` call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..kernels import ops as kernel_ops
from ..kernels.sparse import WeakIdMemo, segment_sum
from ..obs import is_enabled as _obs_enabled
from ..obs import metrics as _obs_metrics

if TYPE_CHECKING:
    from ..graphs.datasets import Dataset

__all__ = [
    "spmm_sum_scipy",
    "spmm_sum_numpy",
    "MeanAggregator",
    "FullGraphInput",
    "full_graph_input",
    "input_aggregate_stats",
]


def spmm_sum_scipy(graph: CSRGraph, features: np.ndarray) -> np.ndarray:
    """``A @ H``: per-vertex sum of neighbor features via scipy CSR."""
    return kernel_ops.spmm(graph, features)


def spmm_sum_numpy(graph: CSRGraph, features: np.ndarray) -> np.ndarray:
    """``A @ H`` in pure numpy (gather + ``np.add.reduceat`` segment sum):
    the oracle of the CSR kernel, outside the kernel layer's accounting."""
    return segment_sum(features[graph.indices], graph.indptr, graph.num_vertices)


class MeanAggregator:
    """Mean neighbor aggregation ``M = D^{-1} A`` with adjoint.

    A thin adapter over :func:`repro.kernels.ops.spmm` /
    :func:`~repro.kernels.ops.spmm_adjoint`: it owns only the degree
    normalization (cached per dtype) and delegates the sparse kernel —
    and its cost accounting — to the kernel layer.

    Parameters
    ----------
    graph:
        Undirected graph (symmetric adjacency). Zero-degree vertices
        aggregate to the zero vector.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        deg = graph.degrees.astype(np.float64)
        self._inv_deg = np.divide(
            1.0, deg, out=np.zeros_like(deg), where=deg > 0
        )[:, None]
        self._inv_deg_by_dtype: dict[np.dtype, np.ndarray] = {
            np.dtype(np.float64): self._inv_deg
        }

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def _inv_deg_for(self, dtype: np.dtype) -> np.ndarray:
        """``1/deg`` column in ``dtype`` (computed in float64, then cast)."""
        inv = self._inv_deg_by_dtype.get(dtype)
        if inv is None:
            inv = self._inv_deg_by_dtype[dtype] = self._inv_deg.astype(dtype)
        return inv

    def forward(self, features: np.ndarray) -> np.ndarray:
        """``D^{-1} A @ H`` — mean of neighbor feature vectors."""
        if features.shape[0] != self.num_vertices:
            raise ValueError(
                f"features rows {features.shape[0]} != vertices {self.num_vertices}"
            )
        inv = self._inv_deg_for(features.dtype)
        return inv * kernel_ops.spmm(self.graph, features)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Adjoint ``M^T G = A (D^{-1} G)`` (valid for symmetric ``A``)."""
        if grad.shape[0] != self.num_vertices:
            raise ValueError(
                f"grad rows {grad.shape[0]} != vertices {self.num_vertices}"
            )
        scaled = self._inv_deg_for(grad.dtype) * grad
        return kernel_ops.spmm_adjoint(self.graph, scaled)

    def dense(self) -> np.ndarray:
        """Dense ``M`` for small graphs (testing only)."""
        n = self.num_vertices
        eye = np.eye(n)
        return self.forward(eye)


# ---------------------------------------------------------------------------
# Memoized full-graph inference input


class FullGraphInput(NamedTuple):
    """What a full-graph forward pass reads besides the weights."""

    aggregator: MeanAggregator
    features: np.ndarray  # dataset.features in the requested dtype
    aggregate: np.ndarray  # aggregator.forward(features), read-only


# dataset -> {dtype: FullGraphInput}
_INPUT_AGGREGATES = WeakIdMemo()
_INPUT_AGGREGATE_STATS = {"hits": 0, "misses": 0}


def input_aggregate_stats() -> dict[str, int]:
    """Hit/miss/live-entry counts of the :func:`full_graph_input` memo."""
    return {
        "hits": _INPUT_AGGREGATE_STATS["hits"],
        "misses": _INPUT_AGGREGATE_STATS["misses"],
        "live_entries": len(_INPUT_AGGREGATES),
    }


def full_graph_input(dataset: Dataset, dtype) -> FullGraphInput:
    """``dataset``'s full-graph aggregator, features and ``A_hat X`` in ``dtype``.

    Memoized on the rules of :func:`repro.kernels.sparse.adjacency_matrix`:
    weak in the dataset (the entry dies with it), one entry per dtype. The
    first call per (dataset, dtype) runs the SpMM — exactly what a forward
    pass would have run — and every later one reuses it; that is sound
    because ``Dataset`` freezes ``features``. The arrays handed back are
    read-only and shared by every caller.
    """
    dtype = np.dtype(dtype)
    slot = _INPUT_AGGREGATES.slot(dataset)
    entry = slot.get(dtype)
    if entry is not None:
        _INPUT_AGGREGATE_STATS["hits"] += 1
        if _obs_enabled():
            _obs_metrics.inc("propagation.input_aggregate.hits")
        return entry
    _INPUT_AGGREGATE_STATS["misses"] += 1
    if _obs_enabled():
        _obs_metrics.inc("propagation.input_aggregate.misses")
    # One aggregator per dataset, whatever the dtype (it keeps 1/deg per dtype).
    aggregator = (
        next(iter(slot.values())).aggregator if slot else MeanAggregator(dataset.graph)
    )
    features = dataset.features.astype(dtype, copy=False)
    aggregate = aggregator.forward(features)
    features.setflags(write=False)
    aggregate.setflags(write=False)
    entry = slot[dtype] = FullGraphInput(aggregator, features, aggregate)
    return entry
