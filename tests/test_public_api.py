"""The README's public API surface must keep working verbatim."""

from __future__ import annotations

import numpy as np
import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_quickstart(self):
        """The exact snippet from README.md (with a smaller budget)."""
        from repro import make_dataset, TrainConfig, GraphSamplingTrainer

        dataset = repro.make_dataset("ppi", scale=0.03, seed=0)
        trainer = GraphSamplingTrainer(
            dataset,
            TrainConfig(
                hidden_dims=(16, 16),
                frontier_size=20,
                budget=100,
                epochs=2,
            ),
        )
        result = trainer.train()
        assert np.isfinite(result.final_val_f1)

        from repro import xeon_40core
        from repro.experiments import iteration_time, phase_times_per_iteration

        phases = phase_times_per_iteration(
            result.iteration_metrics, xeon_40core(), cores=1, p_intra=1, instances=1
        )
        shares = {k: v / iteration_time(phases) for k, v in phases.items()}
        assert set(shares) == {
            "sampling",
            "feature_propagation",
            "weight_application",
        }
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_machine_factory(self):
        m = repro.xeon_40core()
        assert m.num_cores == 40

    def test_sampler_types_exported(self):
        assert issubclass(repro.DashboardFrontierSampler, repro.GraphSampler)
        assert issubclass(repro.FrontierSampler, repro.GraphSampler)
