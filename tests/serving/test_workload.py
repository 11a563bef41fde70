"""Tests for the Zipf-skewed query trace generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.workload import QueryTrace, zipf_trace


class TestZipfTrace:
    def test_shapes_and_bounds(self):
        trace = zipf_trace(200, 50, rate=100.0, rng=np.random.default_rng(0))
        assert len(trace) == 200
        assert trace.query_ids.min() >= 0
        assert trace.query_ids.max() < 50
        assert trace.arrivals[0] == 0.0
        assert np.all(np.diff(trace.arrivals) >= 0.0)

    def test_determinism(self):
        a = zipf_trace(100, 30, rng=np.random.default_rng(7))
        b = zipf_trace(100, 30, rng=np.random.default_rng(7))
        assert np.array_equal(a.query_ids, b.query_ids)
        assert np.array_equal(a.arrivals, b.arrivals)

    def test_skew_concentrates_popularity(self):
        rng = np.random.default_rng(0)
        skewed = zipf_trace(5000, 1000, skew=1.5, rng=rng)
        rng = np.random.default_rng(0)
        flat = zipf_trace(5000, 1000, skew=0.0, rng=rng)

        def top10_share(trace):
            _, counts = np.unique(trace.query_ids, return_counts=True)
            counts = np.sort(counts)[::-1]
            return counts[:10].sum() / counts.sum()

        assert top10_share(skewed) > 2.0 * top10_share(flat)

    def test_offered_rate_close_to_target(self):
        trace = zipf_trace(
            5000, 100, rate=250.0, rng=np.random.default_rng(1)
        )
        span = trace.arrivals[-1] - trace.arrivals[0]
        assert (len(trace) - 1) / span == pytest.approx(250.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_trace(0, 10)
        with pytest.raises(ValueError):
            zipf_trace(10, 0)
        with pytest.raises(ValueError):
            zipf_trace(10, 10, rate=0.0)
        with pytest.raises(ValueError):
            zipf_trace(10, 10, skew=-0.5)
        with pytest.raises(ValueError):
            QueryTrace(
                query_ids=np.array([0, 1]),
                arrivals=np.array([0.0]),
                k=10,
                skew=1.0,
            )


class TestModulatedTrace:
    def test_shapes_and_monotone_arrivals(self):
        from repro.serving.workload import modulated_trace

        trace = modulated_trace(
            500,
            100,
            segments=((1.0, 100.0), (0.5, 1000.0)),
            rng=np.random.default_rng(0),
        )
        assert len(trace) == 500
        assert np.all(np.diff(trace.arrivals) >= 0.0)
        assert trace.query_ids.min() >= 0 and trace.query_ids.max() < 100

    def test_determinism(self):
        from repro.serving.workload import modulated_trace

        kwargs = dict(segments=((0.2, 500.0), (0.2, 50.0)))
        a = modulated_trace(300, 40, rng=np.random.default_rng(3), **kwargs)
        b = modulated_trace(300, 40, rng=np.random.default_rng(3), **kwargs)
        assert np.array_equal(a.query_ids, b.query_ids)
        assert np.array_equal(a.arrivals, b.arrivals)

    def test_segment_rates_realized(self):
        from repro.serving.workload import modulated_trace

        trace = modulated_trace(
            4000,
            1000,
            segments=((1.0, 200.0), (1.0, 2000.0)),
            rng=np.random.default_rng(1),
        )
        cycle = 2.0
        phase = np.mod(trace.arrivals, cycle)
        slow = np.count_nonzero(phase < 1.0)
        fast = np.count_nonzero(phase >= 1.0)
        # 10x rate ratio should survive sampling noise by a wide margin.
        assert fast > 5 * slow

    def test_validation(self):
        from repro.serving.workload import modulated_trace

        with pytest.raises(ValueError):
            modulated_trace(10, 10, segments=())
        with pytest.raises(ValueError):
            modulated_trace(10, 10, segments=((1.0, 0.0),))
        with pytest.raises(ValueError):
            modulated_trace(10, 10, segments=((0.0, 5.0),))


class TestBurstyAndDiurnalTraces:
    def test_bursty_bursts_are_denser(self):
        from repro.serving.workload import bursty_trace

        trace = bursty_trace(
            3000,
            500,
            base_rate=200.0,
            burst_rate=4000.0,
            base_seconds=1.0,
            burst_seconds=0.25,
            rng=np.random.default_rng(2),
        )
        assert np.all(np.diff(trace.arrivals) >= 0.0)
        phase = np.mod(trace.arrivals, 1.25)
        base_count = np.count_nonzero(phase < 1.0)
        burst_count = np.count_nonzero(phase >= 1.0)
        base_rate = base_count / 1.0
        burst_rate = burst_count / 0.25
        assert burst_rate > 5 * base_rate
