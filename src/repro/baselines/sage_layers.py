"""GCN layers operating on bipartite sampled blocks.

Mirrors :class:`repro.nn.layers.GCNLayer` (same weights, same concat/ReLU
structure) but consumes a :class:`SampledBlock`, so source and destination
supports may differ — the layer-sampling computation pattern whose
"neighbor explosion" the paper analyzes. ``BipartiteGCNLayer`` keeps the
self path (GraphSAGE); ``ConvOnlyLayer`` drops it (FastGCN's plain
convolution over an importance-weighted block).
"""

from __future__ import annotations

import numpy as np

from ..kernels import ops as kernel_ops
from ..nn.activations import relu, relu_grad
from ..nn.init import xavier_uniform
from .blocks import SampledBlock

__all__ = ["BipartiteGCNLayer", "ConvOnlyLayer"]


class BipartiteGCNLayer:
    """W_self/W_neigh layer from source support to destination support."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        activation: str = "relu",
        rng: np.random.Generator,
        dtype=np.float64,
    ) -> None:
        if activation not in ("relu", "identity"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.dtype = np.dtype(dtype)
        self.params: dict[str, np.ndarray] = {
            "W_self": xavier_uniform(in_dim, out_dim, rng=rng, dtype=self.dtype),
            "W_neigh": xavier_uniform(in_dim, out_dim, rng=rng, dtype=self.dtype),
            "b_self": np.zeros(out_dim, dtype=self.dtype),
            "b_neigh": np.zeros(out_dim, dtype=self.dtype),
        }
        self.grads: dict[str, np.ndarray] = {
            k: np.zeros_like(v) for k, v in self.params.items()
        }
        self._cache: dict[str, object] | None = None

    @property
    def output_dim(self) -> int:
        return 2 * self.out_dim

    def forward(
        self, h_src: np.ndarray, block: SampledBlock, *, train: bool = True
    ) -> np.ndarray:
        """Propagate source-support features to the destination support."""
        h_agg = block.aggregate(h_src)
        h_self = block.gather_self(h_src)
        z_neigh = kernel_ops.gemm(h_agg, self.params["W_neigh"]) + self.params["b_neigh"]
        z_self = kernel_ops.gemm(h_self, self.params["W_self"]) + self.params["b_self"]
        z = np.concatenate([z_neigh, z_self], axis=1)
        out = relu(z) if self.activation == "relu" else z
        self._cache = (
            {"h_agg": h_agg, "h_self": h_self, "z": z, "block": block}
            if train
            else None
        )
        return out

    def backward(
        self, grad_out: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Write weight grads; return the source-support gradient, or
        ``None`` when ``input_grad`` says nobody consumes it."""
        if self._cache is None:
            raise RuntimeError("backward without cached forward(train=True)")
        h_agg: np.ndarray = self._cache["h_agg"]  # type: ignore[assignment]
        h_self: np.ndarray = self._cache["h_self"]  # type: ignore[assignment]
        z: np.ndarray = self._cache["z"]  # type: ignore[assignment]
        block: SampledBlock = self._cache["block"]  # type: ignore[assignment]

        dz = relu_grad(z, grad_out) if self.activation == "relu" else grad_out
        dz_neigh, dz_self = dz[:, : self.out_dim], dz[:, self.out_dim :]
        kernel_ops.gemm(h_agg.T, dz_neigh, out=self.grads["W_neigh"])
        kernel_ops.gemm(h_self.T, dz_self, out=self.grads["W_self"])
        dz_neigh.sum(axis=0, out=self.grads["b_neigh"])
        dz_self.sum(axis=0, out=self.grads["b_self"])
        if not input_grad:
            return None
        d_src = block.aggregate_backward(
            kernel_ops.gemm(dz_neigh, self.params["W_neigh"].T)
        )
        d_src += block.gather_self_backward(
            kernel_ops.gemm(dz_self, self.params["W_self"].T)
        )
        return d_src


class ConvOnlyLayer:
    """Single-weight graph convolution (FastGCN style, no self path)."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        activation: str = "relu",
        rng: np.random.Generator,
        dtype=np.float64,
    ) -> None:
        if activation not in ("relu", "identity"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.dtype = np.dtype(dtype)
        self.params: dict[str, np.ndarray] = {
            "W": xavier_uniform(in_dim, out_dim, rng=rng, dtype=self.dtype),
            "b": np.zeros(out_dim, dtype=self.dtype),
        }
        self.grads: dict[str, np.ndarray] = {
            k: np.zeros_like(v) for k, v in self.params.items()
        }
        self._cache: dict[str, object] | None = None

    @property
    def output_dim(self) -> int:
        return self.out_dim

    def forward(
        self, h_src: np.ndarray, block: SampledBlock, *, train: bool = True
    ) -> np.ndarray:
        """Importance-weighted convolution to the destination support."""
        h_agg = block.aggregate(h_src)
        z = kernel_ops.gemm(h_agg, self.params["W"]) + self.params["b"]
        out = relu(z) if self.activation == "relu" else z
        self._cache = {"h_agg": h_agg, "z": z, "block": block} if train else None
        return out

    def backward(
        self, grad_out: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Write weight grads; return the source-support gradient, or
        ``None`` when ``input_grad`` says nobody consumes it."""
        if self._cache is None:
            raise RuntimeError("backward without cached forward(train=True)")
        h_agg: np.ndarray = self._cache["h_agg"]  # type: ignore[assignment]
        z: np.ndarray = self._cache["z"]  # type: ignore[assignment]
        block: SampledBlock = self._cache["block"]  # type: ignore[assignment]
        dz = relu_grad(z, grad_out) if self.activation == "relu" else grad_out
        kernel_ops.gemm(h_agg.T, dz, out=self.grads["W"])
        dz.sum(axis=0, out=self.grads["b"])
        if not input_grad:
            return None
        return block.aggregate_backward(
            kernel_ops.gemm(dz, self.params["W"].T)
        )
