"""How much work one training step does, counted at the kernel meters.

Backward stops at the first layer's parameters, writes each gradient once
and runs one SpMM per propagation pass; these tests pin the resulting
kernel-call counts and flop totals for the graph-sampling trainer and the
three Fig. 2 baselines, and hold the analytic weight-application count of
``experiments.modelcosts`` to what the meters saw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.batched_gcn import BatchedGCNConfig, BatchedGCNTrainer
from repro.baselines.fastgcn import FastGCNConfig, FastGCNTrainer
from repro.baselines.graphsage import GraphSAGETrainer, SageConfig
from repro.experiments.modelcosts import weight_application_flops
from repro.kernels import accounting
from repro.propagation.feature_prop import PartitionedPropagator
from repro.propagation.spmm import input_aggregate_stats
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer, TrainResult

HIDDEN = (16, 16)
LAYERS = len(HIDDEN)


def _gcn_forward_flops(n: int, f0: int, classes: int) -> tuple[float, float]:
    """(whole forward pass, its first layer) — two products per layer,
    concat doubling the next layer's input, then the dense head."""
    first = 2 * 2.0 * n * f0 * HIDDEN[0]
    total, dim = 0.0, f0
    for h in HIDDEN:
        total += 2 * 2.0 * n * dim * h
        dim = 2 * h
    return total + 2.0 * n * dim * classes, first


class TestGraphSamplingStep:
    @pytest.mark.parametrize("policy", ["reference", "fast"])
    def test_one_iteration(self, reddit_small, monkeypatch, policy):
        cfg = TrainConfig(
            hidden_dims=HIDDEN, frontier_size=20, budget=120, dtype_policy=policy
        )
        adjoint_passes = []
        real_backward = PartitionedPropagator.backward

        def counted_backward(self, grad):
            adjoint_passes.append(grad.shape[1])
            return real_backward(self, grad)

        monkeypatch.setattr(PartitionedPropagator, "backward", counted_backward)
        with GraphSamplingTrainer(reddit_small, cfg) as trainer:
            result = TrainResult()
            memo_before = input_aggregate_stats()
            with accounting.capture() as seen:
                trainer.train_iteration(0, result)
        # training never reads or fills the full-graph inference input
        assert input_aggregate_stats() == memo_before
        metrics = result.iteration_metrics[0]
        n = metrics.subgraph_vertices
        f0, classes = reddit_small.attribute_dim, reddit_small.num_classes

        # forward 2L + 1, backward 2 (head) + 4 per layer - 2 at the first
        assert seen.gemm_calls == 13
        # one SpMM per pass: L forward, L - 1 adjoint
        assert seen.spmm_calls == 3
        assert len(adjoint_passes) == LAYERS - 1
        assert adjoint_passes == [2 * HIDDEN[0]]  # layer 1's input, never f0
        assert len(metrics.prop_reports) == 2 * LAYERS - 1
        assert [r.f for r in metrics.prop_reports] == [f0, 2 * HIDDEN[0], 2 * HIDDEN[0]]

        # 3x forward, minus the first layer's two dX products — each as
        # big as the matching forward product.
        forward, first_layer = _gcn_forward_flops(n, f0, classes)
        assert seen.gemm_flops == 3 * forward - first_layer
        assert metrics.gemm_flops == seen.gemm_flops
        assert metrics.spmm_flops == seen.spmm_flops
        # ... which is the analytic count the Fig. 2 models price.
        assert seen.gemm_flops == weight_application_flops(
            [(n, f0, HIDDEN[0]), (n, 2 * HIDDEN[0], HIDDEN[1])],
            (n, 2 * HIDDEN[1], classes),
        )


class TestBaselineSteps:
    def test_batched_gcn(self, reddit_small):
        trainer = BatchedGCNTrainer(
            reddit_small, BatchedGCNConfig(hidden_dims=HIDDEN, batch_size=64)
        )
        with accounting.capture() as seen:
            trainer.train_iteration(np.arange(64))
        assert (seen.gemm_calls, seen.spmm_calls) == (13, 3)
        n = trainer.train_graph.num_vertices
        forward, first_layer = _gcn_forward_flops(
            n, reddit_small.attribute_dim, reddit_small.num_classes
        )
        assert seen.gemm_flops == 3 * forward - first_layer

    def test_graphsage(self, reddit_small):
        trainer = GraphSAGETrainer(
            reddit_small, SageConfig(hidden_dims=HIDDEN, fanouts=(5, 3), batch_size=64)
        )
        with accounting.capture() as seen:
            trainer.train_iteration(np.arange(64))
        # Same shape as the GCN: two branches per layer. The metered
        # "SpMMs" are the L block aggregations and the L - 1 scatters.
        assert (seen.gemm_calls, seen.spmm_calls) == (13, 3)
        nodes = trainer.support_stats.nodes_per_layer[0]
        f0 = reddit_small.attribute_dim
        assert seen.gemm_flops == weight_application_flops(
            [(nodes[1], f0, HIDDEN[0]), (nodes[2], 2 * HIDDEN[0], HIDDEN[1])],
            (nodes[2], 2 * HIDDEN[1], reddit_small.num_classes),
        )

    def test_fastgcn(self, reddit_small):
        trainer = FastGCNTrainer(
            reddit_small,
            FastGCNConfig(hidden_dims=HIDDEN, layer_sizes=(80, 80), batch_size=64),
        )
        with accounting.capture() as seen:
            trainer.train_iteration(np.arange(64))
        # One weight per layer: forward L + 1, backward 2 (head) + 2 per
        # layer - 1 at the first.
        assert (seen.gemm_calls, seen.spmm_calls) == (8, 3)
