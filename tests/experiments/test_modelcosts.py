"""Tests for the cross-method modeled-cost pricing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.batched_gcn import BatchedGCNConfig, BatchedGCNTrainer
from repro.baselines.graphsage import GraphSAGETrainer, SageConfig
from repro.experiments.modelcosts import (
    batched_gcn_iteration_cost,
    gcn_iteration_cost,
    graphsage_iteration_cost,
    layer_dims_of,
)
from repro.experiments.table2 import sage_epoch_cost
from repro.parallel.machine import xeon_40core


class TestLayerDims:
    def test_concat_doubles(self):
        assert layer_dims_of(50, (64, 64)) == [50, 128, 128]


class TestGCNIterationCost:
    def test_scales_with_graph_size(self, reddit_small):
        m = xeon_40core()
        full = gcn_iteration_cost(
            reddit_small.graph,
            feature_dims=[reddit_small.attribute_dim, 128, 128],
            num_classes=reddit_small.num_classes,
            machine=m,
        )
        sub, _ = reddit_small.graph.induced_subgraph(
            reddit_small.train_idx[:200]
        )
        small = gcn_iteration_cost(
            sub,
            feature_dims=[reddit_small.attribute_dim, 128, 128],
            num_classes=reddit_small.num_classes,
            machine=m,
        )
        assert full > 4 * small


class TestCrossMethodPricing:
    def test_batched_gcn_priced_on_full_graph(self, reddit_small):
        m = xeon_40core()
        trainer = BatchedGCNTrainer(
            reddit_small, BatchedGCNConfig(hidden_dims=(32, 32), epochs=1)
        )
        cost = batched_gcn_iteration_cost(trainer, m)
        assert cost > 0

    def test_graphsage_requires_recorded_stats(self, reddit_small):
        m = xeon_40core()
        trainer = GraphSAGETrainer(
            reddit_small,
            SageConfig(hidden_dims=(32, 32), fanouts=(5, 5), epochs=1),
        )
        with pytest.raises(ValueError, match="support stats"):
            graphsage_iteration_cost(trainer, m)
        import numpy as np

        trainer.train_iteration(np.arange(64))
        assert graphsage_iteration_cost(trainer, m) > 0

    def test_neighbor_explosion_visible_in_pricing(self, reddit_small):
        """3-layer GraphSAGE iterations cost much more than 1-layer ones
        under the same pricing — the neighbor-explosion signal."""
        import numpy as np

        m = xeon_40core()
        costs = {}
        for layers in (1, 3):
            trainer = GraphSAGETrainer(
                reddit_small,
                SageConfig(
                    hidden_dims=(32,) * layers,
                    fanouts=(10,) * layers,
                    epochs=1,
                    seed=0,
                ),
            )
            trainer.train_iteration(np.arange(32))
            costs[layers] = graphsage_iteration_cost(trainer, m)
        assert costs[3] > 3 * costs[1]


def test_table2_prices_with_the_fig2_model(reddit_small):
    """Table II and Figure 2 price GraphSAGE with one cost model: the
    per-epoch cost is the per-iteration cost times the batches of an epoch."""
    m = xeon_40core()
    trainer = GraphSAGETrainer(
        reddit_small,
        SageConfig(hidden_dims=(32, 32), fanouts=(5, 3), batch_size=48, seed=0),
    )
    epoch_cost = sage_epoch_cost(
        trainer, iterations=2, machine=m, rng=np.random.default_rng(0)
    )
    assert len(trainer.support_stats.nodes_per_layer) == 2
    batches = -(-trainer.train_graph.num_vertices // 48)
    assert epoch_cost == graphsage_iteration_cost(trainer, m) * batches
