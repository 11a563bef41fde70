"""Counters/gauges/histograms: numpy-oracle percentiles, gating, registry."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import obs
from repro.obs import metrics
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestHistogram:
    def test_percentiles_match_numpy_oracle(self, rng):
        for n in (1, 2, 3, 10, 101, 500):
            samples = rng.normal(size=n)
            hist = Histogram()
            hist.extend(samples)
            for q in (0.0, 1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0):
                assert hist.percentile(q) == pytest.approx(
                    float(np.percentile(samples, q)), rel=1e-12, abs=1e-12
                ), (n, q)

    def test_empty_is_nan(self):
        hist = Histogram()
        assert math.isnan(hist.percentile(50))
        assert math.isnan(hist.mean())
        assert math.isnan(hist.max())

    def test_q_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().percentile(101)
        with pytest.raises(ValueError):
            Histogram().percentile(-1)

    def test_summary_scaling(self):
        hist = Histogram()
        hist.extend([0.001, 0.002, 0.003])
        s = hist.summary(scale=1e3)
        assert s["count"] == 3.0
        assert s["p50"] == pytest.approx(2.0)
        assert s["mean"] == pytest.approx(2.0)
        assert s["max"] == pytest.approx(3.0)

    def test_reset(self):
        hist = Histogram()
        hist.record(1.0)
        hist.reset()
        assert len(hist) == 0


class TestExemplarReservoir:
    def test_everything_admitted_during_warmup(self):
        hist = Histogram()
        for i in range(metrics._EXEMPLAR_WARMUP - 1):
            hist.record(float(i))
            assert hist.record_exemplar(float(i), f"req-{i:06d}")
        assert len(hist.exemplars) == metrics._EXEMPLAR_WARMUP - 1

    def test_warm_reservoir_rejects_below_trailing_p95(self):
        hist = Histogram()
        hist.extend([1.0] * 100)
        assert not hist.record_exemplar(0.5, "req-000001")
        assert hist.record_exemplar(2.0, "req-000002")
        assert [e.request_id for e in hist.exemplars] == ["req-000002"]

    def test_full_reservoir_evicts_the_minimum(self):
        hist = Histogram()
        # Keep the histogram cold so admission is unconditional and the
        # eviction policy is isolated.
        for i in range(metrics.EXEMPLAR_CAPACITY):
            hist.record_exemplar(float(i), f"req-{i:06d}")
        assert hist.record_exemplar(100.0, "req-big")
        values = [e.value for e in hist.exemplars]
        assert len(values) == metrics.EXEMPLAR_CAPACITY
        assert 0.0 not in values  # the smallest made room
        assert values[0] == 100.0  # property sorts largest first
        # A candidate smaller than the current minimum is dropped.
        assert not hist.record_exemplar(0.5, "req-small")

    def test_top_values_always_survive(self, rng):
        """Every above-p99 sample of a bench-scale stream stays resolvable."""
        hist = Histogram()
        samples = rng.exponential(scale=0.01, size=2000)
        for i, v in enumerate(samples):
            hist.record(float(v))
            hist.record_exemplar(float(v), f"req-{i:06d}")
        import numpy as np

        p99 = float(np.percentile(samples, 99))
        retained = {e.request_id for e in hist.exemplars}
        expected = {
            f"req-{i:06d}" for i, v in enumerate(samples) if v > p99
        }
        assert expected <= retained

    def test_exemplar_as_dict(self):
        e = metrics.Exemplar(0.5, "req-000001")
        assert e.as_dict() == {"value": 0.5, "request_id": "req-000001"}

    def test_reset_clears_exemplars(self):
        hist = Histogram()
        hist.record_exemplar(1.0, "req-000001")
        hist.reset()
        assert hist.exemplars == ()

    def test_registry_exemplar_snapshot_skips_empty(self):
        reg = MetricsRegistry()
        reg.histogram("with").record_exemplar(1.0, "req-000001")
        reg.histogram("without").record(1.0)
        snap = reg.exemplar_snapshot()
        assert list(snap) == ["with"]
        assert snap["with"][0]["request_id"] == "req-000001"

    def test_guarded_observe_records_exemplar_only_when_enabled(self):
        metrics.observe("lat", 1.0, request_id="req-000001")
        assert metrics.get_registry().histograms.get("lat") is None
        with obs.enabled():
            metrics.observe("lat", 1.0, request_id="req-000001")
            metrics.observe("lat", 2.0)  # no request id: sample only
        hist = metrics.get_registry().histograms["lat"]
        assert hist.count == 2
        assert [e.request_id for e in hist.exemplars] == ["req-000001"]


class TestCounterGauge:
    def test_counter(self):
        c = Counter()
        c.add()
        c.add(2.5)
        assert c.value == 3.5
        c.reset()
        assert c.value == 0.0

    def test_gauge(self):
        g = Gauge()
        assert math.isnan(g.value)
        g.set(0.7)
        assert g.value == 0.7


class TestRegistry:
    def test_create_on_touch_and_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("ops").add(3)
        reg.gauge("ratio").set(0.5)
        reg.histogram("lat").extend([1.0, 2.0])
        reg.histogram("empty")  # never written: excluded from snapshot
        snap = reg.snapshot()
        assert snap["counters"] == {"ops": 3.0}
        assert snap["gauges"] == {"ratio": 0.5}
        assert set(snap["histograms"]) == {"lat"}
        assert snap["histograms"]["lat"]["count"] == 2.0

    def test_reset_drops_names(self):
        reg = MetricsRegistry()
        reg.counter("x").add()
        reg.reset()
        assert reg.snapshot()["counters"] == {}


class TestGuardedHelpers:
    def test_noop_while_disabled(self):
        metrics.inc("c")
        metrics.set_gauge("g", 1.0)
        metrics.observe("h", 1.0)
        snap = metrics.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_record_while_enabled(self):
        with obs.enabled():
            metrics.inc("c", 2)
            metrics.inc("c")
            metrics.set_gauge("g", 0.25)
            metrics.observe("h", 5.0)
        snap = metrics.snapshot()
        assert snap["counters"]["c"] == 3.0
        assert snap["gauges"]["g"] == 0.25
        assert snap["histograms"]["h"]["count"] == 1.0


class TestServingCompat:
    def test_latency_histogram_is_shared_implementation(self):
        from repro.obs.metrics import LatencyHistogram
        from repro.serving.metrics import ServingMetrics

        assert type(ServingMetrics().latency) is LatencyHistogram
        assert issubclass(LatencyHistogram, Histogram)

    def test_latency_rejects_negative(self):
        from repro.obs.metrics import LatencyHistogram

        with pytest.raises(ValueError):
            LatencyHistogram().record(-0.001)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            metrics.does_not_exist
