"""Tests for speedup helpers."""

from __future__ import annotations

import pytest

from repro.analysis.speedup import amdahl_speedup, gemm_simulated_time
from repro.parallel.machine import xeon_40core


class TestAmdahl:
    def test_no_serial_fraction_linear(self):
        assert amdahl_speedup(8, 0.0) == pytest.approx(8.0)

    def test_all_serial_no_speedup(self):
        assert amdahl_speedup(64, 1.0) == pytest.approx(1.0)

    def test_limit(self):
        assert amdahl_speedup(10**6, 0.05) == pytest.approx(20.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            amdahl_speedup(0, 0.1)
        with pytest.raises(ValueError):
            amdahl_speedup(4, 1.5)


class TestGemmTime:
    def test_paper_scaling_16x_at_40(self):
        """The default serial fraction yields ~16x at 40 cores (VI-C4)."""
        m = xeon_40core()
        t1 = gemm_simulated_time(1e9, m, cores=1)
        t40 = gemm_simulated_time(1e9, m, cores=40)
        assert 14.0 <= t1 / t40 <= 19.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gemm_simulated_time(-1.0, xeon_40core(), cores=1)
        with pytest.raises(ValueError):
            gemm_simulated_time(1.0, xeon_40core(), cores=0)
