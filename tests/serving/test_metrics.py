"""Tests for serving metrics — percentiles checked against numpy oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import LatencyHistogram
from repro.serving.metrics import ServingMetrics


class TestLatencyHistogram:
    def test_percentiles_match_numpy_oracle(self, rng):
        samples = rng.exponential(0.01, size=500)
        hist = LatencyHistogram()
        hist.extend(samples)
        for q in (0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0):
            assert hist.percentile(q) == pytest.approx(
                float(np.percentile(samples, q)), rel=1e-12
            )

    def test_small_sample_interpolation(self):
        hist = LatencyHistogram()
        hist.extend([1.0, 2.0, 3.0, 4.0])
        assert hist.percentile(50.0) == pytest.approx(2.5)
        assert hist.percentile(25.0) == pytest.approx(1.75)

    def test_single_sample(self):
        hist = LatencyHistogram()
        hist.record(0.25)
        for q in (0.0, 50.0, 99.0, 100.0):
            assert hist.percentile(q) == 0.25

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert len(hist) == 0
        assert np.isnan(hist.percentile(50.0))
        assert np.isnan(hist.mean())
        assert np.isnan(hist.max())

    def test_mean_and_max(self):
        hist = LatencyHistogram()
        hist.extend([0.1, 0.2, 0.6])
        assert hist.mean() == pytest.approx(0.3)
        assert hist.max() == pytest.approx(0.6)

    def test_summary_scaling(self):
        hist = LatencyHistogram()
        hist.extend([0.001, 0.002, 0.003])
        summary = hist.summary(scale=1000.0)
        assert summary["p50"] == pytest.approx(2.0)
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["count"] == 3

    def test_percentile_validation(self):
        hist = LatencyHistogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)
        with pytest.raises(ValueError):
            hist.record(-0.5)


class TestServingMetrics:
    def test_derived_rates(self):
        m = ServingMetrics()
        m.cache_hits = 3
        m.cache_misses = 9
        assert m.hit_rate == pytest.approx(0.25)

    def test_throughput_uses_wall_span(self):
        m = ServingMetrics()
        m.served = 100
        m.first_arrival = 2.0
        m.last_completion = 4.0
        assert m.span == pytest.approx(2.0)
        assert m.throughput == pytest.approx(50.0)

    def test_zero_guards(self):
        m = ServingMetrics()
        assert m.throughput == 0.0
        assert m.hit_rate == 0.0

    def test_as_dict_latencies_in_ms(self):
        m = ServingMetrics()
        m.latency.extend([0.010, 0.020, 0.030])
        m.served = 3
        m.first_arrival = 0.0
        m.last_completion = 0.030
        row = m.as_dict()
        assert row["p50_ms"] == pytest.approx(20.0)
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
        assert row["served"] == 3
        assert "shed" in row
        # recall_at_k only appears once it has been scored.
        assert "recall_at_k" not in row
        m.recall_at_k = 0.95
        assert m.as_dict()["recall_at_k"] == pytest.approx(0.95)
