"""Tests for the GraphSAGE baseline: support sampling + training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.graphsage import (
    GraphSAGEModel,
    GraphSAGETrainer,
    SageConfig,
    full_block,
    sample_supports,
)


class TestSupportSampling:
    def test_supports_grow_with_depth(self, medium_graph, rng):
        batch = rng.choice(medium_graph.num_vertices, size=32, replace=False)
        supports, blocks = sample_supports(medium_graph, batch, (10, 10), rng)
        assert len(supports) == 3
        assert len(blocks) == 2
        sizes = [s.shape[0] for s in supports]
        # Deeper supports are strictly larger (neighbor explosion).
        assert sizes[0] >= sizes[1] >= sizes[2] == 32

    def test_supports_are_closed(self, medium_graph, rng):
        """Each dst support is contained in its src support."""
        batch = rng.choice(medium_graph.num_vertices, size=16, replace=False)
        supports, _ = sample_supports(medium_graph, batch, (5, 5), rng)
        for l in range(len(supports) - 1):
            assert np.all(np.isin(supports[l + 1], supports[l]))

    def test_block_edges_are_real_edges(self, medium_graph, rng):
        batch = rng.choice(medium_graph.num_vertices, size=8, replace=False)
        supports, blocks = sample_supports(medium_graph, batch, (4,), rng)
        block = blocks[0]
        src, dst = supports[0], supports[1]
        for i in range(block.num_dst):
            for pos in block.neighbor_pos[block.indptr[i] : block.indptr[i + 1]]:
                assert medium_graph.has_edge(int(dst[i]), int(src[pos]))

    def test_fixed_fanout(self, medium_graph, rng):
        batch = rng.choice(medium_graph.num_vertices, size=8, replace=False)
        _, blocks = sample_supports(medium_graph, batch, (7,), rng)
        assert np.all(blocks[0].degrees == 7)

    def test_neighbor_explosion_measured(self, medium_graph, rng):
        """Support size grows multiplicatively until graph saturation."""
        batch = rng.choice(medium_graph.num_vertices, size=4, replace=False)
        s1, _ = sample_supports(medium_graph, batch, (10,), rng)
        s2, _ = sample_supports(medium_graph, batch, (10, 10), rng)
        assert s2[0].shape[0] > s1[0].shape[0]


class TestFullBlock:
    def test_matches_graph(self, clique_ring):
        block = full_block(clique_ring)
        assert block.num_src == block.num_dst == clique_ring.num_vertices
        assert block.num_edges == clique_ring.num_edges_directed

    def test_aggregate_equals_mean_aggregator(self, medium_graph, rng):
        from repro.propagation.spmm import MeanAggregator

        block = full_block(medium_graph)
        h = rng.standard_normal((medium_graph.num_vertices, 6))
        assert np.allclose(
            block.aggregate(h), MeanAggregator(medium_graph).forward(h)
        )


class TestModel:
    def test_forward_shape(self, medium_graph, rng):
        batch = rng.choice(medium_graph.num_vertices, size=16, replace=False)
        supports, blocks = sample_supports(medium_graph, batch, (5, 5), rng)
        model = GraphSAGEModel(8, (4, 4), 3, seed=0)
        h = rng.standard_normal((supports[0].shape[0], 8))
        logits = model.forward(h, blocks)
        assert logits.shape == (16, 3)

    def test_block_count_mismatch(self, medium_graph, rng):
        model = GraphSAGEModel(8, (4, 4), 3, seed=0)
        with pytest.raises(ValueError, match="one block per layer"):
            model.forward(rng.standard_normal((5, 8)), [])


class TestConfig:
    def test_fanout_arity(self):
        with pytest.raises(ValueError, match="one fanout per layer"):
            SageConfig(hidden_dims=(8, 8), fanouts=(5,))

    def test_positive(self):
        with pytest.raises(ValueError):
            SageConfig(hidden_dims=(8,), fanouts=(0,))


class TestTrainer:
    def test_learns_reddit(self, reddit_small):
        cfg = SageConfig(
            hidden_dims=(32, 32), fanouts=(5, 5), batch_size=128, epochs=3, lr=0.01
        )
        trainer = GraphSAGETrainer(reddit_small, cfg)
        result = trainer.train()
        assert result.final_val_f1 > 0.5
        assert result.iterations == 3 * (
            -(-trainer.train_graph.num_vertices // 128)
        )

    def test_loss_decreases(self, reddit_small):
        cfg = SageConfig(
            hidden_dims=(16,), fanouts=(5,), batch_size=256, epochs=3, lr=0.01
        )
        result = GraphSAGETrainer(reddit_small, cfg).train()
        assert result.epochs[-1].train_loss < result.epochs[0].train_loss

    def test_support_stats_recorded(self, reddit_small):
        cfg = SageConfig(
            hidden_dims=(16, 16), fanouts=(5, 5), batch_size=128, epochs=1
        )
        trainer = GraphSAGETrainer(reddit_small, cfg)
        trainer.train()
        nodes = trainer.support_stats.nodes_per_layer
        assert np.mean([row[0] for row in nodes]) > 128  # the layer-0 support
        assert np.mean([sum(row) for row in nodes]) > 0

    def test_evaluate_splits(self, reddit_small):
        cfg = SageConfig(hidden_dims=(16,), fanouts=(5,), epochs=1)
        trainer = GraphSAGETrainer(reddit_small, cfg)
        for split in ("train", "val", "test"):
            res = trainer.evaluate(split)
            assert 0.0 <= res.f1_micro <= 1.0
