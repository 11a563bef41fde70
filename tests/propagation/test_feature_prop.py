"""Tests for Algorithm 6 partitioned propagation: the host pass and its
counters here, the partition count and price the pricer derives from
them (:mod:`repro.experiments.repricing`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.repricing import (
    feature_partitions,
    iteration_phase_times,
    propagation_time,
)
from repro.parallel.machine import MachineSpec, xeon_40core
from repro.propagation.feature_prop import PartitionedPropagator, PropagationReport
from repro.propagation.spmm import MeanAggregator
from repro.train.trainer import IterationMetrics


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


def _report(graph, f: int) -> PropagationReport:
    return PropagationReport(n=graph.num_vertices, f=f, d=graph.average_degree)


class TestEquivalence:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("f", [1, 7, 37, 128])
    @pytest.mark.parametrize("again", [False, True])
    def test_one_call_is_bitwise_the_chunk_schedule(
        self, medium_graph, rng, again, dtype, f
    ):
        x = rng.standard_normal((medium_graph.num_vertices, f)).astype(dtype)
        prop = PartitionedPropagator(medium_graph)
        ref = MeanAggregator(medium_graph)
        fwd, bwd = prop.forward(x), prop.backward(x)
        # the schedule the pricer charges at 8 cores
        q = feature_partitions(prop.reports[0], xeon_40core(), cores=8)
        assert q == min(8, f)
        if again:  # later calls on other input leave earlier results alone
            for later in (prop.forward(-x), prop.backward(-x)):
                assert not np.shares_memory(later, fwd)
                assert not np.shares_memory(later, bwd)
        assert np.array_equal(fwd, _chunked(x, ref.forward, q))
        assert np.array_equal(bwd, _chunked(x, ref.backward, q))
        assert prop.reports == [_report(medium_graph, f)] * (4 if again else 2)

    def test_forward_matches_unpartitioned(self, medium_graph, rng):
        h = rng.standard_normal((medium_graph.num_vertices, 37))
        prop = PartitionedPropagator(medium_graph)
        ref = MeanAggregator(medium_graph)
        assert np.allclose(prop.forward(h), ref.forward(h))

    def test_backward_matches_unpartitioned(self, medium_graph, rng):
        g = rng.standard_normal((medium_graph.num_vertices, 24))
        prop = PartitionedPropagator(medium_graph)
        ref = MeanAggregator(medium_graph)
        assert np.allclose(prop.backward(g), ref.backward(g))

    def test_single_column(self, medium_graph, rng):
        h = rng.standard_normal((medium_graph.num_vertices, 1))
        prop = PartitionedPropagator(medium_graph)
        assert np.allclose(
            prop.forward(h), MeanAggregator(medium_graph).forward(h)
        )

    def test_shape_validation(self, medium_graph, rng):
        prop = PartitionedPropagator(medium_graph)
        with pytest.raises(ValueError):
            prop.forward(rng.standard_normal((3, 2)))


class TestQChoice:
    def test_q_at_least_cores(self, medium_graph):
        rep = _report(medium_graph, 64)
        assert feature_partitions(rep, xeon_40core(), cores=16) >= min(16, 64)

    def test_q_capped_at_f(self, medium_graph):
        rep = _report(medium_graph, 8)
        assert feature_partitions(rep, xeon_40core(), cores=40) <= 8

    def test_q_grows_with_working_set(self, medium_graph):
        tiny_cache = MachineSpec(l2_bytes=16 * 1024)
        big_cache = MachineSpec(l2_bytes=16 * 1024 * 1024)
        rep = _report(medium_graph, 512)
        q_small = feature_partitions(rep, tiny_cache, cores=1)
        q_big = feature_partitions(rep, big_cache, cores=1)
        assert q_small > q_big

    def test_invalid_cores(self, medium_graph):
        with pytest.raises(ValueError):
            propagation_time(_report(medium_graph, 16), xeon_40core(), cores=0)


class TestReports:
    def test_one_report_per_pass(self, medium_graph, rng):
        prop = PartitionedPropagator(medium_graph)
        h = rng.standard_normal((medium_graph.num_vertices, 16))
        prop.forward(h)
        prop.backward(h)
        assert len(prop.reports) == 2

    def test_report_contents(self, medium_graph, rng):
        prop = PartitionedPropagator(medium_graph)
        h = rng.standard_normal((medium_graph.num_vertices, 16))
        prop.forward(h)
        rep = prop.reports[0]
        assert rep.n == medium_graph.num_vertices
        assert rep.f == 16
        assert rep.d == medium_graph.average_degree

    def test_simulated_time_decreases_with_cores(self, medium_graph):
        rep = _report(medium_graph, 32)
        machine = xeon_40core()
        t1 = propagation_time(rep, machine, cores=1)
        t10 = propagation_time(rep, machine, cores=10)
        t40 = propagation_time(rep, machine, cores=40)
        assert t1 > t10 > t40

    def test_bandwidth_ceiling(self, medium_graph):
        """Beyond dram_saturation_cores more cores buy nothing: the divisor
        stops growing, and more feature chunks only add index traffic."""
        machine = xeon_40core()
        sat = int(machine.dram_saturation_cores)
        narrow = _report(medium_graph, 8)  # Q capped at f on both sides
        assert propagation_time(narrow, machine, cores=machine.num_cores) == (
            propagation_time(narrow, machine, cores=sat)
        )
        wide = _report(medium_graph, 64)
        assert propagation_time(wide, machine, cores=machine.num_cores) > (
            propagation_time(wide, machine, cores=sat)
        )

    def test_invalid_report(self):
        with pytest.raises(ValueError):
            propagation_time(PropagationReport(n=1, f=1, d=1.0), xeon_40core(), cores=0)

    def test_total_simulated_time_sums(self, medium_graph, rng):
        """An iteration's feature propagation is the sum of its passes."""
        prop = PartitionedPropagator(medium_graph)
        h = rng.standard_normal((medium_graph.num_vertices, 16))
        prop.forward(h)
        prop.backward(h)
        metrics = IterationMetrics(
            sampler_stats={"unique_vertices": 1.0},
            prop_reports=tuple(prop.reports),
            gemm_flops=0.0,
            subgraph_vertices=medium_graph.num_vertices,
            subgraph_edges=medium_graph.num_edges,
        )
        machine = xeon_40core()
        ((_, total, _),) = iteration_phase_times(
            [metrics], machine, cores=4, p_intra=1, instances=1
        )
        parts = sum(propagation_time(r, machine, cores=4) for r in prop.reports)
        assert total == parts
