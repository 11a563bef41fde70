"""Tests for the communication model and Theorem 2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import DCSBMParams, dcsbm_graph
from repro.propagation.partition_model import (
    BYTES_PER_FEATURE,
    BYTES_PER_INDEX,
    brute_force_optimum,
    g_comm,
    g_comp,
    gamma_lower_bound,
    gamma_of_partition,
    gamma_random_partition,
    gcomm_lower_bound,
    theorem2_conditions_hold,
    theorem2_plan,
)


class TestFormulas:
    def test_g_comp_independent_of_partition(self):
        assert g_comp(1000, 15.0, 512) == 1000 * 15 * 512

    def test_g_comm_formula(self):
        # 2*Q*n*d + 8*P*n*f*gamma
        val = g_comm(100, 10.0, 64, p=2, q=4, gamma_p=0.6)
        assert val == pytest.approx(
            BYTES_PER_INDEX * 4 * 100 * 10 + BYTES_PER_FEATURE * 2 * 100 * 64 * 0.6
        )

    def test_g_comm_validation(self):
        with pytest.raises(ValueError):
            g_comm(10, 1.0, 4, p=0, q=1, gamma_p=0.5)
        with pytest.raises(ValueError):
            g_comm(10, 1.0, 4, p=1, q=1, gamma_p=1.5)

    def test_lower_bound(self):
        assert gcomm_lower_bound(100, 64) == 8 * 100 * 64


class TestGamma:
    def test_lower_bound(self):
        assert gamma_lower_bound(4) == 0.25

    def test_random_partition_p1(self):
        assert gamma_random_partition(1, np.array([3, 4])) == 1.0

    def test_random_partition_decreases_with_p(self):
        degrees = np.full(100, 10.0)
        g2 = gamma_random_partition(2, degrees)
        g8 = gamma_random_partition(8, degrees)
        assert g2 > g8 > gamma_lower_bound(8)

    def test_random_partition_matches_measurement(self):
        """The closed-form expectation matches a measured random partition."""
        params = DCSBMParams(num_vertices=600, num_blocks=1, avg_degree=8.0, mixing=1.0)
        graph, _ = dcsbm_graph(params, rng=np.random.default_rng(3))
        p = 4
        rng = np.random.default_rng(0)

        def random_vertex_partition():  # near-balanced uniform assignment
            assignment = np.arange(graph.num_vertices) % p
            rng.shuffle(assignment)
            return assignment

        measured = np.mean(
            [gamma_of_partition(graph, random_vertex_partition()) for _ in range(5)]
        )
        predicted = gamma_random_partition(p, graph.degrees)
        assert measured == pytest.approx(predicted, rel=0.1)

    def test_gamma_of_partition_identity(self, clique_ring):
        """P=1 partition: every vertex is a source."""
        assignment = np.zeros(clique_ring.num_vertices, dtype=np.int64)
        assert gamma_of_partition(clique_ring, assignment) == 1.0


class TestTheorem2:
    def test_plan_structure(self):
        plan = theorem2_plan(n=4000, d=15.0, f=512, cores=40, cache_bytes=256 * 1024)
        assert plan.p == 1
        assert plan.gamma_p == 1.0
        assert plan.q == max(40, int(np.ceil(8 * 4000 * 512 / (256 * 1024))))
        assert plan.feasible

    def test_cache_constraint_satisfied(self):
        plan = theorem2_plan(n=8000, d=15.0, f=1024, cores=40, cache_bytes=256 * 1024)
        assert plan.cache_bytes_per_round <= 256 * 1024

    def test_cores_bound_when_cache_loose(self):
        # Tiny feature matrix: Q = C.
        plan = theorem2_plan(n=100, d=5.0, f=16, cores=40, cache_bytes=10**9)
        assert plan.q == 40

    def test_conditions(self):
        assert theorem2_conditions_hold(
            n=4000, d=15.0, f=512, cores=40, cache_bytes=256 * 1024
        )
        # Large C violates C <= 4f/d.
        assert not theorem2_conditions_hold(
            n=4000, d=15.0, f=512, cores=1000, cache_bytes=256 * 1024
        )
        # Huge graph violates 2nd <= cache.
        assert not theorem2_conditions_hold(
            n=10**7, d=15.0, f=512, cores=40, cache_bytes=256 * 1024
        )

    @pytest.mark.parametrize(
        "n,f",
        [(1000, 512), (4000, 512), (8000, 512), (2000, 1024), (8000, 1024)],
    )
    def test_two_approximation(self, n, f):
        """Theorem 2: the P=1 plan is within 2x of the ideal optimum
        whenever the preconditions hold."""
        d, cores, cache = 15.0, 40, 256 * 1024
        assert theorem2_conditions_hold(n=n, d=d, f=f, cores=cores, cache_bytes=cache)
        ours = theorem2_plan(n=n, d=d, f=f, cores=cores, cache_bytes=cache)
        ideal = brute_force_optimum(n=n, d=d, f=f, cores=cores, cache_bytes=cache)
        assert ours.comm_bytes <= 2.0 * ideal.comm_bytes + 1e-9

    def test_two_approximation_vs_lower_bound(self):
        """Even against the unachievable 8nf bound the ratio is <= 2."""
        n, d, f, cores, cache = 6000, 12.0, 768, 40, 256 * 1024
        assert theorem2_conditions_hold(n=n, d=d, f=f, cores=cores, cache_bytes=cache)
        ours = theorem2_plan(n=n, d=d, f=f, cores=cores, cache_bytes=cache)
        assert ours.comm_bytes <= 2.0 * gcomm_lower_bound(n, f)

    def test_bound_can_exceed_two_outside_conditions(self):
        """When 2nd > S_cache the guarantee no longer holds — the paper's
        preconditions are tight, not decorative."""
        n, d, f, cores = 1000, 128.0, 128, 40  # very dense, small features
        cache = 64 * 1024
        assert not theorem2_conditions_hold(
            n=n, d=d, f=f, cores=cores, cache_bytes=cache
        )
        ours = theorem2_plan(n=n, d=d, f=f, cores=cores, cache_bytes=cache)
        ideal = brute_force_optimum(n=n, d=d, f=f, cores=cores, cache_bytes=cache)
        assert ours.comm_bytes > 2.0 * ideal.comm_bytes


class TestBruteForce:
    def test_returns_feasible_minimum(self):
        plan = brute_force_optimum(n=1000, d=10.0, f=256, cores=16, cache_bytes=10**6)
        assert plan.p * plan.q >= 16

    def test_realistic_gamma_never_beats_ideal(self):
        degrees = np.full(2000, 15.0)
        ideal = brute_force_optimum(
            n=2000, d=15.0, f=512, cores=40, cache_bytes=256 * 1024
        )
        realistic = brute_force_optimum(
            n=2000,
            d=15.0,
            f=512,
            cores=40,
            cache_bytes=256 * 1024,
            gamma_fn=lambda p: gamma_random_partition(p, degrees),
        )
        assert realistic.comm_bytes >= ideal.comm_bytes

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            brute_force_optimum(
                n=10**6, d=10.0, f=4096, cores=40, cache_bytes=1024
            )
