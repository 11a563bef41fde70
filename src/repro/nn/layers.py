"""GCN and dense layers with explicit forward/backward.

The GCN layer implements exactly the propagation of Section II-A /
Algorithm 1 of the paper:

    H_neigh = (A_hat) H W_neigh          (mean aggregation, then weights)
    H_self  = H W_self
    H_out   = sigma( H_neigh || H_self )  (concat + activation)

where ``A_hat = D^{-1} A`` is supplied as an aggregator object exposing
``forward`` (the spmm) and ``backward`` (its adjoint). Layers are
framework-free: each caches what its backward pass needs and returns input
gradients explicitly, so the training loop is a plain loop over layers. All
parameters and gradients live in per-layer dicts keyed by name, which is
what the optimizers consume.

``backward`` does what the parameter update needs and no more:

* it *writes* every parameter gradient (``gemm(h^T, dz, out=grads[...])``,
  ``sum(axis=0, out=...)``) — a second ``backward`` overwrites the first,
  there is nothing to zero between steps;
* ``input_grad=False`` says the caller has no consumer for the gradient
  w.r.t. the layer input (the first layer of a network: nothing trains
  the input features), so the two ``dz W^T`` products and the adjoint
  propagation pass are not run and ``None`` is returned.

Every matrix multiply dispatches through :mod:`repro.kernels`. A GCN
layer's forward writes both branch GEMMs into the halves of one fresh
pre-activation ``z``, adds the bias in place and applies ReLU (in place
when ``train=False`` — nothing reads ``z`` again), so every array a layer
returns belongs to its caller.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..kernels import ops as kernel_ops
from .activations import relu, relu_grad
from .init import xavier_uniform

__all__ = ["Aggregator", "GCNLayer", "DenseLayer", "Dropout"]


class Aggregator(Protocol):
    """Anything that can apply ``A_hat`` and its adjoint (see spmm)."""

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Apply the aggregation operator ``A_hat`` to row features."""
        ...

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Apply the adjoint ``A_hat^T`` to row gradients."""
        ...


class GCNLayer:
    """One graph-convolution layer with separate self/neighbor weights.

    Its shape is the paper's: ``relu(A_hat H W_neigh + b_neigh ||
    H W_self + b_self)``, the two branches concatenated, so the layer's
    output dimension is ``2 * out_dim``.

    Parameters
    ----------
    in_dim, out_dim:
        Input feature size ``f^(l-1)`` and per-branch output size.
    activation:
        ``"relu"`` (the paper's) or ``"identity"`` (what the gradient
        checks run, away from ReLU's kink).
    dtype:
        Parameter/activation dtype. Weights are always drawn in float64
        from ``rng`` (so the random stream and float64 values match the
        reference path) and then cast.
    """

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
        # Backward cache, populated by forward(train=True).
        self._cache: dict[str, object] | None = None

    @property
    def output_dim(self) -> int:
        return 2 * self.out_dim

    def forward(
        self,
        features: np.ndarray,
        aggregator: Aggregator,
        *,
        train: bool = True,
        h_agg: np.ndarray | None = None,
    ) -> np.ndarray:
        """Propagate features one layer; caches activations when training.

        ``h_agg`` is ``aggregator.forward(features)`` when the caller
        already holds it (full-graph inference keeps the input layer's,
        which no weight can change); ``None`` computes it here.
        """
        if h_agg is None:
            h_agg = aggregator.forward(features)
        z = np.empty((features.shape[0], self.output_dim), self.dtype)
        # Write both branches straight into their halves of z — the
        # concat disappears.
        z_neigh = z[:, : self.out_dim]
        z_self = z[:, self.out_dim :]
        kernel_ops.gemm(h_agg, self.params["W_neigh"], out=z_neigh)
        kernel_ops.gemm(features, self.params["W_self"], out=z_self)
        z_neigh += self.params["b_neigh"]
        z_self += self.params["b_self"]
        if self.activation != "relu":
            out = z
        elif not train:
            out = kernel_ops.relu(z, out=z)  # nothing reads z again
        else:  # backward reads z: the activation gets its own array
            out = kernel_ops.relu(z)
        if train:
            self._cache = {
                "features": features,
                "h_agg": h_agg,
                "z": z,
                "aggregator": aggregator,
            }
        else:
            self._cache = None
        return out

    def backward(
        self, grad_out: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Write parameter grads; return the gradient w.r.t. the input,
        or ``None`` when ``input_grad`` says nobody consumes it."""
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward(train=True)")
        features: np.ndarray = self._cache["features"]  # type: ignore[assignment]
        h_agg: np.ndarray = self._cache["h_agg"]  # type: ignore[assignment]
        z: np.ndarray = self._cache["z"]  # type: ignore[assignment]
        aggregator: Aggregator = self._cache["aggregator"]  # type: ignore[assignment]

        dz = relu_grad(z, grad_out) if self.activation == "relu" else grad_out
        dz_neigh = dz[:, : self.out_dim]
        dz_self = dz[:, self.out_dim :]

        kernel_ops.gemm(h_agg.T, dz_neigh, out=self.grads["W_neigh"])
        kernel_ops.gemm(features.T, dz_self, out=self.grads["W_self"])
        dz_neigh.sum(axis=0, out=self.grads["b_neigh"])
        dz_self.sum(axis=0, out=self.grads["b_self"])
        if not input_grad:
            return None

        d_h_agg = kernel_ops.gemm(dz_neigh, self.params["W_neigh"].T)
        d_features = kernel_ops.gemm(dz_self, self.params["W_self"].T)
        d_features += aggregator.backward(d_h_agg)
        return d_features


class DenseLayer:
    """Fully-connected layer (the classifier head, PREDICT in Algorithm 1)."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        *,
        activation: str = "identity",
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
        self._cache: dict[str, np.ndarray] | None = None

    @property
    def output_dim(self) -> int:
        return self.out_dim

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        """Affine transform (+ optional ReLU); caches inputs when training."""
        z = kernel_ops.gemm(x, self.params["W"]) + self.params["b"]
        out = relu(z) if self.activation == "relu" else z
        self._cache = {"x": x, "z": z} if train else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Write dW/db; return the gradient w.r.t. the input."""
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward(train=True)")
        x, z = self._cache["x"], self._cache["z"]
        dz = relu_grad(z, grad_out) if self.activation == "relu" else grad_out
        kernel_ops.gemm(x.T, dz, out=self.grads["W"])
        dz.sum(axis=0, out=self.grads["b"])
        return kernel_ops.gemm(dz, self.params["W"].T)


class Dropout:
    """Inverted dropout; identity when ``rate == 0`` or evaluating."""

    def __init__(self, rate: float, *, rng: np.random.Generator) -> None:
        if not (0.0 <= rate < 1.0):
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, *, train: bool = True) -> np.ndarray:
        """Apply an inverted-dropout mask (identity when evaluating).

        The mask is materialized in ``x``'s own (floating) dtype: a
        float32 activation stream stays float32 instead of being silently
        promoted through a float64 mask.
        """
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        dtype = x.dtype if x.dtype.kind == "f" else np.dtype(np.float64)
        mask = self.rng.random(x.shape) < keep
        self._mask = mask.astype(dtype) / dtype.type(keep)
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Propagate gradients through the mask used in the last forward."""
        if self._mask is None:
            return grad_out
        return grad_out * self._mask
