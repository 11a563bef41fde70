"""Shared gradcheck harness: every layer type under both dtype policies.

One parametrized harness drives :func:`repro.nn.gradcheck.check_gradients`
over the four trainable layer classes — :class:`GCNLayer`,
:class:`DenseLayer`, :class:`BipartiteGCNLayer`, :class:`ConvOnlyLayer` —
under the float64 reference policy (seed-era tolerances) and the float32
fast policy (relaxed step/tolerance from the policy object itself).

Layers run with identity activation so finite differences never straddle
a ReLU kink; the scalar loss is ``sum(out * C)`` for a fixed coefficient
matrix, accumulated in float64 so the float32 path's loss is still
resolvable at the policy's finite-difference step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.blocks import SampledBlock
from repro.baselines.sage_layers import BipartiteGCNLayer, ConvOnlyLayer
from repro.graphs import edges_to_csr
from repro.kernels.policy import FAST, REFERENCE, resolve_policy
from repro.nn.gradcheck import check_gradients
from repro.nn.layers import DenseLayer, GCNLayer
from repro.propagation.spmm import MeanAggregator

POLICIES = [REFERENCE.name, FAST.name]


def _small_graph():
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [1, 4]])
    return edges_to_csr(edges, 5)


def _small_block(rng: np.random.Generator, *, weighted: bool) -> SampledBlock:
    # 6 source rows -> 3 destinations; one empty neighbor list and one
    # absent self position, the ragged cases Section II-B points out.
    indptr = np.array([0, 2, 2, 5])
    neighbor_pos = np.array([0, 3, 1, 4, 5])
    self_pos = np.array([0, -1, 2])
    edge_weight = rng.standard_normal(5) if weighted else None
    return SampledBlock(
        num_src=6,
        num_dst=3,
        indptr=indptr,
        neighbor_pos=neighbor_pos,
        self_pos=self_pos,
        edge_weight=edge_weight,
        mean_normalize=not weighted,
    )


def _make_gcn(policy, rng):
    graph = _small_graph()
    layer = GCNLayer(
        4, 3, activation="identity", rng=rng, dtype=policy.dtype
    )
    agg = MeanAggregator(graph)
    x = policy.cast(rng.standard_normal((5, 4)))
    return layer, lambda train: layer.forward(x, agg, train=train)


def _make_dense(policy, rng):
    layer = DenseLayer(4, 3, activation="identity", rng=rng, dtype=policy.dtype)
    x = policy.cast(rng.standard_normal((6, 4)))
    return layer, lambda train: layer.forward(x, train=train)


def _make_bipartite(policy, rng):
    block = _small_block(rng, weighted=False)
    layer = BipartiteGCNLayer(
        4, 3, activation="identity", rng=rng, dtype=policy.dtype
    )
    x = policy.cast(rng.standard_normal((6, 4)))
    return layer, lambda train: layer.forward(x, block, train=train)


def _make_conv_only(policy, rng):
    block = _small_block(rng, weighted=True)
    layer = ConvOnlyLayer(
        4, 3, activation="identity", rng=rng, dtype=policy.dtype
    )
    x = policy.cast(rng.standard_normal((6, 4)))
    return layer, lambda train: layer.forward(x, block, train=train)


FACTORIES = {
    "gcn": _make_gcn,
    "dense": _make_dense,
    "bipartite": _make_bipartite,
    "conv_only": _make_conv_only,
}


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("layer_kind", sorted(FACTORIES))
def test_layer_gradients_under_policy(layer_kind, policy_name):
    policy = resolve_policy(policy_name)
    rng = np.random.default_rng(42)
    layer, forward = FACTORIES[layer_kind](policy, rng)

    out = forward(True)
    assert out.dtype == policy.dtype
    coeff = rng.standard_normal(out.shape)

    forward(True)
    layer.backward(policy.cast(coeff))
    analytic = {k: v.copy() for k, v in layer.grads.items()}

    def loss() -> float:
        return float(np.sum(forward(False) * coeff, dtype=np.float64))

    errors = check_gradients(
        loss,
        layer.params,
        analytic,
        eps=policy.grad_eps,
        tol=policy.grad_tol,
        sample=10,
        rng=np.random.default_rng(7),
    )
    assert set(errors) == set(layer.params)


@pytest.mark.parametrize("layer_kind", sorted(FACTORIES))
def test_fast_policy_matches_reference_gradients(layer_kind):
    # The float32 analytic gradient is the rounded float64 one, not a
    # different formula: both paths must agree to float32 resolution.
    grads = {}
    for policy in (REFERENCE, FAST):
        rng = np.random.default_rng(42)
        layer, forward = FACTORIES[layer_kind](policy, rng)
        coeff = rng.standard_normal(forward(True).shape)
        forward(True)
        layer.backward(policy.cast(coeff))
        grads[policy.name] = {
            k: v.astype(np.float64) for k, v in layer.grads.items()
        }
    for name, ref in grads["reference"].items():
        np.testing.assert_allclose(
            grads["fast"][name], ref, rtol=2e-4, atol=2e-4, err_msg=name
        )
