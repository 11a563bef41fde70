"""Tests for the work-span executor."""

from __future__ import annotations

import pytest

from repro.parallel.executor import (
    ParallelRegion,
    WorkSpanExecutor,
    static_chunk_makespan,
)
from repro.parallel.machine import xeon_40core


class TestStaticChunking:
    def test_single_worker(self):
        assert static_chunk_makespan([1.0, 2.0, 3.0], 1) == 6.0

    def test_even_split(self):
        assert static_chunk_makespan([1.0, 1.0, 1.0, 1.0], 2) == 2.0

    def test_imbalanced_costs(self):
        """Static chunking splits by count, so a heavy chunk dominates."""
        costs = [10.0, 1.0, 1.0, 1.0]
        assert static_chunk_makespan(costs, 2) == 11.0

    def test_more_workers_than_tasks(self):
        assert static_chunk_makespan([2.0, 3.0], 8) == 3.0

    def test_empty(self):
        assert static_chunk_makespan([], 4) == 0.0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            static_chunk_makespan([1.0], 0)


class TestParallelRegion:
    def test_total_work(self):
        r = ParallelRegion("probe", (1.0, 2.0), serial_work=0.5)
        assert r.total_work == 3.5

    def test_static_vs_dynamic(self):
        costs = (10.0, 1.0, 1.0, 1.0)
        static = ParallelRegion("r", costs, schedule="static")
        dynamic = ParallelRegion("r", costs, schedule="dynamic")
        # Dynamic (LPT) balances the heavy task; static can't.
        assert dynamic.makespan(2) <= static.makespan(2)

    def test_serial_cost_added(self):
        r = ParallelRegion("r", (4.0, 4.0), serial_work=1.0)
        assert r.makespan(2) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelRegion("r", (1.0,), schedule="guided")
        with pytest.raises(ValueError):
            ParallelRegion("r", (-1.0,))


class TestExecutor:
    def test_work_span_speedup(self):
        ex = WorkSpanExecutor(xeon_40core(), workers=4)
        ex.run(ParallelRegion("a", (1.0,) * 8))
        ex.run(ParallelRegion("b", (2.0,) * 4))
        assert ex.work == 16.0
        assert ex.span == pytest.approx(2.0 + 2.0)
        assert ex.speedup == pytest.approx(4.0)

    def test_amdahl_via_serial_cost(self):
        ex = WorkSpanExecutor(xeon_40core(), workers=8)
        ex.run(ParallelRegion("r", (1.0,) * 8, serial_work=1.0))
        assert ex.speedup == pytest.approx(9.0 / 2.0)

    def test_region_breakdown_accumulates(self):
        ex = WorkSpanExecutor(xeon_40core(), workers=2)
        ex.run(ParallelRegion("probe", (1.0, 1.0)))
        ex.run(ParallelRegion("probe", (1.0, 1.0)))
        ex.run(ParallelRegion("update", (3.0,)))
        bd = ex.region_breakdown()
        assert bd["probe"] == pytest.approx(2.0)
        assert bd["update"] == pytest.approx(3.0)

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            WorkSpanExecutor(xeon_40core(), workers=0)
        with pytest.raises(ValueError):
            WorkSpanExecutor(xeon_40core(), workers=100)

    def test_algorithm4_shape(self):
        """Simulate Algorithm 4's pop: probing (dynamic, until success)
        then chunked invalidation (static over deg entries). The chunked
        phase scales; the probe phase is the sequential bottleneck —
        matching Theorem 1's structure."""
        machine = xeon_40core()
        deg = 64
        for workers in (1, 8):
            ex = WorkSpanExecutor(machine, workers=workers)
            ex.run(ParallelRegion("probe", (1.0,), schedule="dynamic"))
            ex.run(ParallelRegion("invalidate", (1.0,) * deg, schedule="static"))
            if workers == 1:
                t1 = ex.span
            else:
                t8 = ex.span
        assert t1 / t8 < 8.0  # probe term caps the speedup
        assert t1 / t8 > 4.0  # but the chunked bulk still scales
