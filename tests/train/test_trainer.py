"""Tests for the graph-sampling GCN trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.repricing import PHASES, phase_times_per_iteration
from repro.parallel.machine import xeon_40core
from repro.sampling.extra import RandomNodeSampler
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer


@pytest.fixture
def quick_cfg():
    return TrainConfig(
        hidden_dims=(16, 16),
        frontier_size=20,
        budget=120,
        lr=0.01,
        epochs=3,
        eval_every=1,
        seed=0,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(hidden_dims=())
        with pytest.raises(ValueError):
            TrainConfig(frontier_size=0)
        with pytest.raises(ValueError):
            TrainConfig(frontier_size=10, budget=5)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(prefetch_workers=0)


class TestTrainer:
    def test_loss_decreases(self, reddit_small, quick_cfg):
        result = GraphSamplingTrainer(reddit_small, quick_cfg).train()
        assert result.epochs[-1].train_loss < result.epochs[0].train_loss

    def test_learns_reddit(self, reddit_small):
        cfg = TrainConfig(
            hidden_dims=(32, 32),
            frontier_size=30,
            budget=190,
            lr=0.005,
            epochs=8,
            eval_every=8,
            seed=0,
        )
        result = GraphSamplingTrainer(reddit_small, cfg).train()
        assert result.final_val_f1 > 0.5

    def test_trains_multilabel(self, ppi_small, quick_cfg):
        result = GraphSamplingTrainer(ppi_small, quick_cfg).train()
        assert np.isfinite(result.epochs[-1].train_loss)
        assert result.epochs[-1].val is not None

    def test_trace_phases(self, reddit_small, quick_cfg):
        """The run's counters price to all three phases (the trainer keeps
        no modeled clock of its own)."""
        result = GraphSamplingTrainer(reddit_small, quick_cfg).train()
        phases = phase_times_per_iteration(
            result.iteration_metrics, xeon_40core(), cores=1, p_intra=1, instances=1
        )
        assert tuple(phases) == PHASES
        assert all(v > 0 for v in phases.values())

    def test_iterations_per_epoch(self, reddit_small, quick_cfg):
        trainer = GraphSamplingTrainer(reddit_small, quick_cfg)
        result = trainer.train()
        assert result.iterations == quick_cfg.epochs * trainer.batches_per_epoch

    def test_iteration_metrics_recorded(self, reddit_small, quick_cfg):
        trainer = GraphSamplingTrainer(reddit_small, quick_cfg)
        result = trainer.train()
        assert len(result.iteration_metrics) == result.iterations
        m = result.iteration_metrics[0]
        assert m.gemm_flops > 0
        assert m.subgraph_vertices > 0
        # One forward pass per layer, one adjoint pass per layer but the
        # first (backward stops at the first layer's parameters).
        assert len(m.prop_reports) == 2 * len(quick_cfg.hidden_dims) - 1

    def test_training_restricted_to_train_graph(self, reddit_small, quick_cfg):
        trainer = GraphSamplingTrainer(reddit_small, quick_cfg)
        assert trainer.train_graph.num_vertices == reddit_small.train_idx.size
        # Sampler operates on the training graph only.
        assert trainer.sampler.graph.num_vertices == trainer.train_graph.num_vertices

    def test_sampler_override(self, reddit_small, quick_cfg):
        ref = GraphSamplingTrainer(reddit_small, quick_cfg)
        sampler = RandomNodeSampler(ref.train_graph, budget=100)
        trainer = GraphSamplingTrainer(reddit_small, quick_cfg, sampler=sampler)
        result = trainer.train(epochs=1)
        assert result.iterations > 0

    def test_determinism(self, reddit_small, quick_cfg):
        r1 = GraphSamplingTrainer(reddit_small, quick_cfg).train()
        r2 = GraphSamplingTrainer(reddit_small, quick_cfg).train()
        assert r1.epochs[-1].train_loss == pytest.approx(r2.epochs[-1].train_loss)

    def test_eval_every(self, reddit_small):
        cfg = TrainConfig(
            hidden_dims=(16,), frontier_size=20, budget=100, epochs=4, eval_every=2
        )
        result = GraphSamplingTrainer(reddit_small, cfg).train()
        evals = [r.val is not None for r in result.epochs]
        assert evals == [False, True, False, True]

    def test_budget_clamped_to_train_graph(self, reddit_small):
        cfg = TrainConfig(
            hidden_dims=(16,), frontier_size=10, budget=10**6, epochs=1
        )
        trainer = GraphSamplingTrainer(reddit_small, cfg)
        assert trainer.sampler.budget <= trainer.train_graph.num_vertices
