"""Sparse feature-aggregation adapters (the ``(A^T) H`` step of Algorithm 1).

The GCN's feature-aggregation step computes, for every vertex, the mean of
its neighbors' feature vectors. On the sampled subgraph this is the
dominant irregular kernel (Section V of the paper). The actual SpMM now
lives in :mod:`repro.kernels` — this module keeps the historical entry
points as thin adapters over it:

* :func:`spmm_sum_scipy` — the ``"scipy"`` kernel backend (CSR matvec,
  C loops). The scipy operator is memoized per graph by the kernel
  layer's adjacency cache, so repeated calls no longer rebuild it.
* :func:`spmm_sum_numpy` — the ``"numpy"`` backend (pure-numpy
  ``add.reduceat``); an independent oracle in tests and the kernel the
  partitioned propagation driver's cache model reasons about.

:class:`MeanAggregator` wraps a graph and exposes the forward
mean-aggregation and its adjoint for backpropagation. For an undirected
graph with row-mean normalization ``M = D^{-1} A``, the adjoint is
``M^T G = A (D^{-1} G)`` because ``A`` is symmetric. Flop/op counting
happens inside :mod:`repro.kernels.accounting` — not here.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..kernels import ops as kernel_ops
from ..kernels.backends import available_backends

__all__ = ["spmm_sum_scipy", "spmm_sum_numpy", "MeanAggregator"]


def spmm_sum_scipy(graph: CSRGraph, features: np.ndarray) -> np.ndarray:
    """``A @ H``: per-vertex sum of neighbor features via scipy CSR."""
    return kernel_ops.spmm(graph, features, backend="scipy")


def spmm_sum_numpy(graph: CSRGraph, features: np.ndarray) -> np.ndarray:
    """``A @ H`` in pure numpy (gather + ``np.add.reduceat`` segment sum)."""
    return kernel_ops.spmm(graph, features, backend="numpy")


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
    backend:
        ``None`` (the default) is the kernel layer's default backend;
        a kernel-registry name (``"scipy"`` / ``"numpy"``) selects one
        — for oracles.
    """

    def __init__(self, graph: CSRGraph, *, backend: str | None = None) -> None:
        if backend is not None and backend not in available_backends():
            raise ValueError(f"unknown backend {backend!r}")
        self.graph = graph
        self.backend = backend
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

    def forward(
        self, features: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``D^{-1} A @ H`` — mean of neighbor feature vectors."""
        if features.shape[0] != self.num_vertices:
            raise ValueError(
                f"features rows {features.shape[0]} != vertices {self.num_vertices}"
            )
        inv = self._inv_deg_for(features.dtype)
        if out is None:
            return inv * kernel_ops.spmm(self.graph, features, backend=self.backend)
        kernel_ops.spmm(self.graph, features, out=out, backend=self.backend)
        np.multiply(out, inv, out=out)
        return out

    def backward(
        self, grad: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Adjoint ``M^T G = A (D^{-1} G)`` (valid for symmetric ``A``)."""
        if grad.shape[0] != self.num_vertices:
            raise ValueError(
                f"grad rows {grad.shape[0]} != vertices {self.num_vertices}"
            )
        scaled = self._inv_deg_for(grad.dtype) * grad
        return kernel_ops.spmm_adjoint(
            self.graph, scaled, out=out, backend=self.backend
        )

    def dense(self) -> np.ndarray:
        """Dense ``M`` for small graphs (testing only)."""
        n = self.num_vertices
        eye = np.eye(n)
        return self.forward(eye)
