"""Modeled per-iteration serial costs for every training method.

Figure 2's wall-clock comparison is faithful to *what actually ran*, but
at 1-3k-vertex scale the work ratios that drive the paper's serial
speedups (the paper's Reddit: 153k training vertices vs 8000-vertex
subgraphs, a 19x propagation ratio) shrink to ~4x, and constant Python
overheads blur the rest. This module prices each method's iteration on
the *same* machine cost model used everywhere else, so the Figure 2
harness can report a scale-faithful modeled speedup next to the measured
wall-clock one:

* proposed — priced by :func:`repro.experiments.repricing.cumulative_time`
  from the run's recorded iteration counters (1 core, scalar sampler);
* Batched GCN — full-training-graph propagation + GEMM per update;
* GraphSAGE — measured sampled-support sizes priced on aggregation
  gathers (``cost_gather``), gather traffic and weight-application GEMM
  time; :func:`graphsage_iteration_cost` is the only GraphSAGE pricer,
  and Table II's per-epoch cost is this times the batches of an epoch.
"""

from __future__ import annotations

import numpy as np

from ..analysis.speedup import gemm_simulated_time
from ..baselines.batched_gcn import BatchedGCNTrainer
from ..baselines.graphsage import GraphSAGETrainer
from ..graphs.csr import CSRGraph
from ..parallel.machine import MachineSpec

__all__ = [
    "weight_application_flops",
    "gcn_iteration_cost",
    "batched_gcn_iteration_cost",
    "graphsage_iteration_cost",
]


def weight_application_flops(
    layers: list[tuple[int, int, int]], head: tuple[int, int, int]
) -> float:
    """GEMM flops of one training iteration (forward + backward).

    ``layers[l] = (rows, in_dim, branch_dim)``: layer ``l`` applies its
    two weight matrices (neighbor and self branch, ``in_dim x
    branch_dim`` each) to ``rows`` rows; ``head`` is the classifier's
    ``(rows, in_dim, num_classes)``. Every product costs its forward
    flops three times — forward, ``dW`` and ``dX`` — except at the first
    layer, where backward stops at the parameters (nothing trains the
    input features), exactly what the trainers run and
    :mod:`repro.kernels.accounting` meters.
    """
    flops = 0.0
    for l, (rows, in_dim, branch_dim) in enumerate(layers):
        passes = 3.0 if l > 0 else 2.0
        flops += passes * 2 * 2.0 * rows * in_dim * branch_dim
    rows, in_dim, num_classes = head
    return flops + 3.0 * 2.0 * rows * in_dim * num_classes


def gcn_iteration_cost(
    graph: CSRGraph,
    *,
    feature_dims: list[int],
    num_classes: int,
    machine: MachineSpec,
) -> float:
    """Serial cost of one fwd+bwd GCN pass over ``graph``.

    ``feature_dims`` are the per-layer input dims (layer l consumes
    ``feature_dims[l]``); concat layers should pass the concatenated
    size for the next layer, as :func:`layer_dims_of` produces.
    """
    n = graph.num_vertices
    d = graph.average_degree
    cost = 0.0
    layers = []
    for l, (dim, layer_out) in enumerate(zip(feature_dims, feature_dims[1:])):
        # Aggregation: a forward pass, and an adjoint pass everywhere but
        # at the first layer — n*d*dim gather-adds each plus the streamed
        # bytes of the Eq. 3 communication model (index stream + one
        # cache-blocked feature read per round).
        comm_bytes = 2.0 * n * d + 8.0 * n * dim
        cost += (2.0 if l > 0 else 1.0) * (
            n * d * dim * machine.cost_gather
            + comm_bytes * machine.dram_cost_per_byte
        )
        # The per-branch output is half the (concatenated) layer output.
        per_branch = layer_out // 2 if layer_out % 2 == 0 else layer_out
        layers.append((n, dim, per_branch))
    flops = weight_application_flops(layers, (n, feature_dims[-1], num_classes))
    return cost + gemm_simulated_time(flops, machine, cores=1)


def layer_dims_of(in_dim: int, hidden_dims: tuple[int, ...], concat: bool = True) -> list[int]:
    """Per-layer input dims of the shared GCN architecture."""
    dims = [in_dim]
    for h in hidden_dims:
        dims.append(2 * h if concat else h)
    return dims


def batched_gcn_iteration_cost(
    trainer: BatchedGCNTrainer, machine: MachineSpec
) -> float:
    """One Batched-GCN update: a full-training-graph fwd+bwd pass."""
    cfg = trainer.config
    dims = layer_dims_of(
        trainer.dataset.features.shape[1], cfg.hidden_dims, cfg.concat
    )
    return gcn_iteration_cost(
        trainer.train_graph,
        feature_dims=dims,
        num_classes=trainer.dataset.num_classes,
        machine=machine,
    )


def graphsage_iteration_cost(
    trainer: GraphSAGETrainer, machine: MachineSpec
) -> float:
    """Mean measured per-iteration GraphSAGE cost (requires recorded
    support stats from at least one training iteration)."""
    nodes = trainer.support_stats.nodes_per_layer
    edges = trainer.support_stats.edges_per_layer
    if not nodes:
        raise ValueError("no recorded support stats; train at least one iteration")
    in_dims = []
    dim = trainer.model.in_dim
    for layer in trainer.model.layers:
        in_dims.append(dim)
        dim = layer.output_dim
    out_dims = [layer.out_dim for layer in trainer.model.layers]
    costs = []
    for node_row, edge_row in zip(nodes, edges):
        cost = 0.0
        for l, (e_l, f_in) in enumerate(zip(edge_row, in_dims)):
            # agg forward, plus its adjoint everywhere but at layer 0
            cost += (2.0 if l > 0 else 1.0) * e_l * f_in * machine.cost_gather
            cost += e_l * f_in * 8.0 * machine.dram_cost_per_byte
        flops = weight_application_flops(
            list(zip(node_row[1:], in_dims, out_dims)),
            (node_row[-1], dim, trainer.model.num_classes),
        )
        costs.append(cost + gemm_simulated_time(flops, machine, cores=1))
    return float(np.mean(costs))
