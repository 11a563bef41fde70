"""Trainer-level sampler-zoo tests: config plumbing, SAINT weights,
cross-family convergence parity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling.dashboard import DashboardFrontierSampler
from repro.sampling.edge import DegreeWeightedEdgeSampler
from repro.sampling.edge_indp import IndependentEdgeSampler
from repro.sampling.rw import RandomWalkBatchSampler
from repro.sampling.zoo import FAMILIES, make_sampler
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer

_SAMPLER_TYPES = {
    "dashboard": DashboardFrontierSampler,
    "rw": RandomWalkBatchSampler,
    "edge": DegreeWeightedEdgeSampler,
    "edge-indp": IndependentEdgeSampler,
}


class TestConfigValidation:
    def test_family_choices(self):
        for fam in FAMILIES:
            TrainConfig(sampler_family=fam)
        with pytest.raises(ValueError, match="sampler_family"):
            TrainConfig(sampler_family="bfs")

    def test_loss_norm_choices(self):
        TrainConfig(loss_norm="none")
        TrainConfig(loss_norm="saint")
        with pytest.raises(ValueError, match="loss_norm"):
            TrainConfig(loss_norm="graphsaint")

    def test_walk_depth_and_norm_subgraphs(self, ppi_small):
        # The walk depth is the rw sampler's own knob, checked where it
        # is set.
        with pytest.raises(ValueError, match="walk_depth"):
            make_sampler("rw", ppi_small.graph, budget=80, walk_depth=0)
        with pytest.raises(ValueError, match="norm_subgraphs"):
            TrainConfig(norm_subgraphs=0)


class TestFamilySelection:
    def _config(self, **kw):
        kw.setdefault("hidden_dims", (16,))
        kw.setdefault("frontier_size", 16)
        kw.setdefault("budget", 80)
        kw.setdefault("epochs", 1)
        kw.setdefault("seed", 0)
        return TrainConfig(**kw)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_trainer_builds_requested_family(self, ppi_small, family):
        with GraphSamplingTrainer(
            ppi_small, self._config(sampler_family=family)
        ) as trainer:
            assert isinstance(trainer.sampler, _SAMPLER_TYPES[family])
            assert trainer.norm is None  # loss_norm defaults to "none"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_trains(self, ppi_small, family):
        with GraphSamplingTrainer(
            ppi_small, self._config(sampler_family=family)
        ) as trainer:
            result = trainer.train()
        assert result.iterations > 0
        assert np.isfinite(result.epochs[-1].train_loss)

    def test_default_config_unchanged(self, ppi_small):
        """The zoo refactor is behavior-preserving: the default config
        builds the same dashboard sampler and trains to the same losses
        as before the factory existed (same seed, same stream)."""
        direct_cfg = self._config()
        with GraphSamplingTrainer(ppi_small, direct_cfg) as trainer:
            budget = min(direct_cfg.budget, trainer.train_graph.num_vertices)
            via_factory = trainer.sampler
            assert isinstance(via_factory, DashboardFrontierSampler)
            direct = DashboardFrontierSampler(
                trainer.train_graph,
                frontier_size=min(direct_cfg.frontier_size, budget),
                budget=budget,
                eta=2.0,
                vector_lanes=8,
            )
            a = via_factory.sample(np.random.default_rng(4))
            b = direct.sample(np.random.default_rng(4))
            assert np.array_equal(a.vertex_map, b.vertex_map)
            assert a.stats == b.stats


class TestSaintNormalization:
    def _config(self, **kw):
        kw.setdefault("hidden_dims", (16,))
        kw.setdefault("frontier_size", 16)
        kw.setdefault("budget", 80)
        kw.setdefault("epochs", 1)
        kw.setdefault("seed", 0)
        kw.setdefault("loss_norm", "saint")
        kw.setdefault("norm_subgraphs", 6)
        return TrainConfig(**kw)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_norm_computed_and_applied(self, ppi_small, family):
        with GraphSamplingTrainer(
            ppi_small, self._config(sampler_family=family)
        ) as trainer:
            assert trainer.norm is not None
            n = trainer.train_graph.num_vertices
            assert trainer.norm.loss_weight.shape == (n,)
            assert np.all(trainer.norm.loss_weight > 0)
            result = trainer.train()
        assert np.isfinite(result.epochs[-1].train_loss)

    def test_saint_losses_comparable_to_mean(self, ppi_small):
        """SAINT batch weights sum to ~1 in expectation, so weighted-sum
        losses stay on the scale of the plain batch mean (no silent
        gradient blow-up when switching the mode on)."""
        plain = GraphSamplingTrainer(
            ppi_small, self._config(loss_norm="none")
        ).train()
        saint = GraphSamplingTrainer(ppi_small, self._config()).train()
        ratio = saint.epochs[0].train_loss / plain.epochs[0].train_loss
        assert 0.2 < ratio < 5.0


@pytest.mark.slow
class TestConvergenceParity:
    """ISSUE-7 acceptance: every family within 0.02 F1 of the dashboard
    baseline (i.e. no family trains *worse* than dashboard - 0.02; being
    better is allowed) on the small Reddit paper benchmark with SAINT
    normalization on."""

    def test_families_match_dashboard_f1(self, reddit_small):
        f1 = {}
        for family in FAMILIES:
            cfg = TrainConfig(
                hidden_dims=(32, 32),
                frontier_size=30,
                budget=190,
                lr=0.005,
                epochs=8,
                eval_every=8,
                seed=0,
                sampler_family=family,
                loss_norm="saint",
            )
            with GraphSamplingTrainer(reddit_small, cfg) as trainer:
                f1[family] = trainer.train().final_val_f1
        baseline = f1["dashboard"]
        assert baseline > 0.5  # the existing learns-reddit bar
        for family in FAMILIES:
            assert f1[family] >= baseline - 0.02, (family, f1)
