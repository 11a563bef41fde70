"""Shape tests for the X6/X7 extension experiments (reduced workloads)."""

from __future__ import annotations

import pytest

from repro.experiments import extensions


class TestDepthAccuracy:
    def test_rows_and_monotone_cost(self):
        res = extensions.run_depth_accuracy(depths=(1, 2), hidden=16, epochs=2, seed=0)
        rows = res["rows"]
        assert [r["layers"] for r in rows] == [1, 2]
        assert rows[1]["gemm_flops_per_iter"] > rows[0]["gemm_flops_per_iter"]
        assert rows[1]["num_parameters"] > rows[0]["num_parameters"]
        for r in rows:
            assert 0.0 <= r["val_f1_micro"] <= 1.0


class TestBudgetScaling:
    def test_budget_fraction_shrinks(self):
        res = extensions.run_budget_scaling(
            base_scale=0.004,
            scale_factors=(1.0, 2.0),
            budget=150,
            hidden=16,
            epochs=2,
            seed=0,
        )
        rows = res["rows"]
        assert rows[0]["budget"] == rows[1]["budget"] == 150
        assert rows[1]["num_vertices"] > rows[0]["num_vertices"]
        assert rows[1]["budget_fraction"] < rows[0]["budget_fraction"]
        assert rows[1]["batches_per_epoch"] > rows[0]["batches_per_epoch"]
