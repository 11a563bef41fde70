"""Tests for Algorithm 6 partitioned propagation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.machine import MachineSpec, xeon_40core
from repro.propagation.feature_prop import PartitionedPropagator, PropagationReport
from repro.propagation.spmm import MeanAggregator


def _chunked(x: np.ndarray, op, q: int) -> np.ndarray:
    """Algorithm 6's schedule replayed serially, one kernel call per
    feature chunk — what the propagator ran on the host before it priced
    the schedule and ran one call. Kept as the oracle."""
    out = np.empty_like(x)
    bounds = np.linspace(0, x.shape[1], q + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if lo < hi:
            out[:, lo:hi] = op(np.ascontiguousarray(x[:, lo:hi]))
    return out


class TestEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("f", [1, 7, 37, 128])
    @pytest.mark.parametrize("again", [False, True])
    def test_one_call_is_bitwise_the_chunk_schedule(
        self, medium_graph, rng, again, dtype, f
    ):
        x = rng.standard_normal((medium_graph.num_vertices, f)).astype(dtype)
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=8)
        ref = MeanAggregator(medium_graph)
        q = prop.choose_q(f)
        assert q == min(8, f)  # the schedule is still chosen, and priced
        fwd, bwd = prop.forward(x), prop.backward(x)
        if again:  # later calls on other input leave earlier results alone
            for later in (prop.forward(-x), prop.backward(-x)):
                assert not np.shares_memory(later, fwd)
                assert not np.shares_memory(later, bwd)
        assert np.array_equal(fwd, _chunked(x, ref.forward, q))
        assert np.array_equal(bwd, _chunked(x, ref.backward, q))
        assert [r.q for r in prop.reports] == [q] * (4 if again else 2)

    def test_forward_matches_unpartitioned(self, medium_graph, rng):
        h = rng.standard_normal((medium_graph.num_vertices, 37))
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=8)
        ref = MeanAggregator(medium_graph)
        assert np.allclose(prop.forward(h), ref.forward(h))

    def test_backward_matches_unpartitioned(self, medium_graph, rng):
        g = rng.standard_normal((medium_graph.num_vertices, 24))
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=8)
        ref = MeanAggregator(medium_graph)
        assert np.allclose(prop.backward(g), ref.backward(g))

    def test_single_column(self, medium_graph, rng):
        h = rng.standard_normal((medium_graph.num_vertices, 1))
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=4)
        assert np.allclose(
            prop.forward(h), MeanAggregator(medium_graph).forward(h)
        )

    def test_shape_validation(self, medium_graph, rng):
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=4)
        with pytest.raises(ValueError):
            prop.forward(rng.standard_normal((3, 2)))


class TestQChoice:
    def test_q_at_least_cores(self, medium_graph):
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=16)
        assert prop.choose_q(64) >= min(16, 64)

    def test_q_capped_at_f(self, medium_graph):
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=40)
        assert prop.choose_q(8) <= 8

    def test_q_grows_with_working_set(self, medium_graph):
        tiny_cache = MachineSpec(l2_bytes=16 * 1024)
        big_cache = MachineSpec(l2_bytes=16 * 1024 * 1024)
        q_small = PartitionedPropagator(medium_graph, tiny_cache, cores=1).choose_q(512)
        q_big = PartitionedPropagator(medium_graph, big_cache, cores=1).choose_q(512)
        assert q_small > q_big

    def test_invalid_cores(self, medium_graph):
        with pytest.raises(ValueError):
            PartitionedPropagator(medium_graph, xeon_40core(), cores=0)


class TestReports:
    def test_one_report_per_pass(self, medium_graph, rng):
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=4)
        h = rng.standard_normal((medium_graph.num_vertices, 16))
        prop.forward(h)
        prop.backward(h)
        assert len(prop.reports) == 2
        prop.reset_reports()
        assert not prop.reports

    def test_report_contents(self, medium_graph, rng):
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=4)
        h = rng.standard_normal((medium_graph.num_vertices, 16))
        prop.forward(h)
        rep = prop.reports[0]
        assert rep.n == medium_graph.num_vertices
        assert rep.f == 16
        assert rep.comp_ops == pytest.approx(
            medium_graph.num_vertices * medium_graph.average_degree * 16
        )
        assert rep.comm_bytes > 0

    def test_simulated_time_decreases_with_cores(self, medium_graph, rng):
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=4)
        h = rng.standard_normal((medium_graph.num_vertices, 32))
        prop.forward(h)
        rep = prop.reports[0]
        machine = xeon_40core()
        t1 = rep.simulated_time(machine, cores=1)
        t10 = rep.simulated_time(machine, cores=10)
        t40 = rep.simulated_time(machine, cores=40)
        assert t1 > t10 > t40

    def test_bandwidth_ceiling(self, medium_graph, rng):
        """Beyond dram_saturation_cores, speedup flattens."""
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=4)
        h = rng.standard_normal((medium_graph.num_vertices, 32))
        prop.forward(h)
        rep = prop.reports[0]
        machine = xeon_40core()
        sat = int(machine.dram_saturation_cores)
        t_sat = rep.simulated_time(machine, cores=sat)
        t_more = rep.simulated_time(machine, cores=machine.num_cores)
        assert t_more == pytest.approx(t_sat)

    def test_invalid_report(self):
        with pytest.raises(ValueError):
            PropagationReport(
                n=1, f=1, q=1, rounds=1, comp_ops=1.0, comm_bytes=1.0,
                cache_bytes_per_round=1.0,
            ).simulated_time(xeon_40core(), cores=0)

    def test_total_simulated_time_sums(self, medium_graph, rng):
        prop = PartitionedPropagator(medium_graph, xeon_40core(), cores=4)
        h = rng.standard_normal((medium_graph.num_vertices, 16))
        prop.forward(h)
        prop.backward(h)
        total = prop.total_simulated_time()
        parts = sum(r.simulated_time(prop.machine, cores=4) for r in prop.reports)
        assert total == pytest.approx(parts)
