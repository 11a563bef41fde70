"""Tests for the scaling re-pricing machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.repricing import (
    iteration_time,
    phase_times_per_iteration,
    speedup_table,
)
from repro.parallel.machine import xeon_40core
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer


@pytest.fixture(scope="module")
def metrics(reddit_small):
    cfg = TrainConfig(
        hidden_dims=(32, 32), frontier_size=30, budget=190, epochs=1, seed=0,
        eval_every=10**9,
    )
    trainer = GraphSamplingTrainer(reddit_small, cfg)
    result = trainer.train()
    return result.iteration_metrics


class TestPhaseTimes:
    def test_all_phases_positive(self, metrics):
        phases = phase_times_per_iteration(
            metrics, xeon_40core(), cores=1, p_intra=8, instances=1
        )
        assert set(phases) == {"sampling", "feature_propagation", "weight_application"}
        assert all(v > 0 for v in phases.values())

    def test_more_cores_never_slower(self, metrics):
        m = xeon_40core()
        totals = [
            iteration_time(
                phase_times_per_iteration(metrics, m, cores=c, p_intra=8, instances=c)
            )
            for c in (1, 5, 10, 20, 40)
        ]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_validation(self, metrics):
        with pytest.raises(ValueError):
            phase_times_per_iteration([], xeon_40core(), cores=1, p_intra=8, instances=1)
        with pytest.raises(ValueError):
            phase_times_per_iteration(
                metrics, xeon_40core(), cores=0, p_intra=8, instances=1
            )


class TestSpeedupTable:
    def test_structure(self, metrics):
        table = speedup_table(metrics, xeon_40core(), cores_list=[1, 10, 40], p_intra=8)
        assert set(table) == {1, 10, 40}
        assert table[1]["speedup"] == pytest.approx(1.0)
        assert table[40]["speedup"] > table[10]["speedup"] > 1.0

    def test_total_is_sum_of_phases(self, metrics):
        table = speedup_table(metrics, xeon_40core(), cores_list=[10], p_intra=8)
        entry = table[10]
        assert entry["total"] == pytest.approx(
            entry["sampling"]
            + entry["feature_propagation"]
            + entry["weight_application"]
        )
