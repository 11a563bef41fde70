"""Tests for the alias-table sampler and the dynamic-cost contrast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling.alias import AliasTable, dynamic_sampling_cost


class TestAliasTable:
    def test_uniform_weights(self, rng):
        table = AliasTable(np.ones(10))
        draws = table.sample(rng, size=20000)
        counts = np.bincount(draws, minlength=10)
        assert counts.min() > 1600  # expectation 2000

    def test_matches_distribution(self):
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        table = AliasTable(weights)
        rng = np.random.default_rng(0)
        draws = table.sample(rng, size=100_000)
        freq = np.bincount(draws, minlength=4) / 100_000
        assert np.allclose(freq, weights / weights.sum(), atol=0.01)

    def test_zero_weight_never_drawn(self):
        table = AliasTable(np.array([0.0, 1.0, 0.0, 1.0]))
        draws = table.sample(np.random.default_rng(1), size=50_000)
        assert not np.any(draws == 0)
        assert not np.any(draws == 2)

    def test_single_draw(self, rng):
        table = AliasTable(np.array([5.0]))
        assert table.sample(rng) == 0

    def test_skewed_distribution(self):
        weights = np.array([1000.0] + [1.0] * 99)
        table = AliasTable(weights)
        draws = table.sample(np.random.default_rng(2), size=50_000)
        assert np.mean(draws == 0) == pytest.approx(1000 / 1099, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            AliasTable(np.array([]))
        with pytest.raises(ValueError):
            AliasTable(np.array([-1.0, 2.0]))
        with pytest.raises(ValueError):
            AliasTable(np.zeros(3))

    def test_prob_alias_invariants(self, rng):
        weights = rng.random(64) + 0.01
        table = AliasTable(weights)
        assert np.all(table.prob >= 0) and np.all(table.prob <= 1.0 + 1e-12)
        assert table.alias.min() >= 0 and table.alias.max() < 64


class TestDynamicCost:
    def test_dashboard_wins_at_paper_frontier_size(self):
        """At the paper's m=1000 the Dashboard's incremental update beats
        per-pop alias rebuilds by an order of magnitude."""
        cost = dynamic_sampling_cost(m=1000, pops=7000, avg_degree=30.0, eta=2.0)
        assert cost["dashboard_advantage"] > 4.0
        # And the gap widens on sparser graphs (update term ~ degree).
        sparse = dynamic_sampling_cost(m=1000, pops=7000, avg_degree=10.0, eta=2.0)
        assert sparse["dashboard_advantage"] > cost["dashboard_advantage"]

    def test_alias_competitive_for_tiny_frontiers(self):
        """For very small frontiers on dense graphs the rebuild is cheap —
        the advantage ratio approaches (and can dip below) 1."""
        cost = dynamic_sampling_cost(m=16, pops=100, avg_degree=30.0, eta=2.0)
        assert cost["dashboard_advantage"] < 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            dynamic_sampling_cost(m=0, pops=1, avg_degree=1.0, eta=2.0)
