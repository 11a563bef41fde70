"""The GCN network: a stack of GCN layers plus a dense classifier head.

This composes the pieces of Algorithm 1: L graph-convolution layers
(lines 6–9) followed by PREDICT (line 11, a dense layer producing logits).
The same network object runs on any graph — during training it is fed the
sampled subgraph's aggregator; at evaluation time the full graph's — which
is precisely the graph-sampling design of Section III-A (weights are shared
between the subgraph GCN and the full-graph GCN).
"""

from __future__ import annotations

import numpy as np

from .layers import Aggregator, DenseLayer, Dropout, GCNLayer
from .optim import ParamGroup

__all__ = ["GCN"]


class GCN:
    """Multi-layer GCN with neighbor/self weights and concat aggregation.

    Parameters
    ----------
    in_dim:
        Input attribute dimension ``f^(0)``.
    hidden_dims:
        Per-branch hidden sizes, one per GCN layer (length = L). Each
        layer outputs ``2 *`` its hidden size (neighbor || self).
    num_classes:
        Output logits dimension.
    dropout:
        Input dropout rate applied before every GCN layer (0 disables).
    dtype:
        Parameter/activation dtype (see :mod:`repro.kernels.policy`).
        Weights are drawn in float64 from the seeded stream then cast, so
        a float32 network holds the rounded reference weights.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dims: list[int] | tuple[int, ...],
        num_classes: int,
        *,
        dropout: float = 0.0,
        seed: int = 0,
        dtype=np.float64,
    ) -> None:
        if not hidden_dims:
            raise ValueError("need at least one GCN layer")
        rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self.layers: list[GCNLayer] = []
        self.dropouts: list[Dropout] = []
        dim = in_dim
        for h in hidden_dims:
            layer = GCNLayer(dim, h, activation="relu", rng=rng, dtype=self.dtype)
            self.layers.append(layer)
            self.dropouts.append(Dropout(dropout, rng=rng))
            dim = layer.output_dim
        self.head = DenseLayer(
            dim, num_classes, activation="identity", rng=rng, dtype=self.dtype
        )
        self.in_dim = in_dim
        self.num_classes = num_classes

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def parameter_groups(self) -> list[ParamGroup]:
        """(params, grads) dict pairs for every layer plus the head."""
        groups: list[ParamGroup] = [(l.params, l.grads) for l in self.layers]
        groups.append((self.head.params, self.head.grads))
        return groups

    def num_parameters(self) -> int:
        """Total learnable scalar count across all layers."""
        return sum(
            p.size for params, _ in self.parameter_groups() for p in params.values()
        )

    # ------------------------------------------------------------------
    def forward(
        self,
        features: np.ndarray,
        aggregator: Aggregator,
        *,
        train: bool = True,
        input_aggregate: np.ndarray | None = None,
    ) -> np.ndarray:
        """Full forward pass; returns logits for every vertex of the graph.

        ``input_aggregate`` is ``aggregator.forward(features)`` when the
        caller already holds it (inference only: training drops out the
        input first, so layer 0 aggregates something else every call).
        """
        if train and input_aggregate is not None:
            raise ValueError("input_aggregate is for train=False passes only")
        h, h_agg = features, input_aggregate
        for drop, layer in zip(self.dropouts, self.layers):
            h = drop.forward(h, train=train)
            h = layer.forward(h, aggregator, train=train, h_agg=h_agg)
            h_agg = None
        return self.head.forward(h, train=train)

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backprop from the logits gradient into every layer's ``grads``.

        Stops at the first layer's parameters: the gradient w.r.t. the
        input features has no consumer (nothing trains them), so layer 0
        runs with ``input_grad=False`` and its dropout mask is not
        applied backwards. Ask ``layers[0].backward`` for it directly.
        """
        g = self.head.backward(grad_logits)
        for i in range(len(self.layers) - 1, 0, -1):
            g = self.dropouts[i].backward(self.layers[i].backward(g))
        self.layers[0].backward(g, input_grad=False)

    # ------------------------------------------------------------------
    def embeddings(
        self,
        features: np.ndarray,
        aggregator: Aggregator,
        *,
        input_aggregate: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vertex embeddings H^(L) (the layer activations before PREDICT)."""
        h, h_agg = features, input_aggregate
        for layer in self.layers:
            h = layer.forward(h, aggregator, train=False, h_agg=h_agg)
            h_agg = None
        return h

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat copy of all parameters (for checkpoint/restore in tests)."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for k, v in layer.params.items():
                out[f"layer{i}.{k}"] = v.copy()
        for k, v in self.head.params.items():
            out[f"head.{k}"] = v.copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy parameters from a :meth:`state_dict` snapshot in place."""
        for i, layer in enumerate(self.layers):
            for k in layer.params:
                layer.params[k][...] = state[f"layer{i}.{k}"]
        for k in self.head.params:
            self.head.params[k][...] = state[f"head.{k}"]
