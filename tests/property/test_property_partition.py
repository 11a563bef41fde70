"""Property-based tests for the partitioning model (Theorem 2)."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.propagation.partition_model import (
    brute_force_optimum,
    g_comm,
    gcomm_lower_bound,
    theorem2_conditions_hold,
    theorem2_plan,
)


class TestTheorem2Properties:
    @given(
        n=st.integers(200, 10_000),
        d=st.floats(2.0, 40.0),
        f=st.integers(64, 2048),
        cores=st.integers(1, 64),
    )
    # 8nf/S = 10.0015 rounds up to Q = 11: ratio 2.0154 against 8nf.
    @example(n=5042, d=24.0, f=65, cores=1)
    @settings(max_examples=80, deadline=None)
    def test_two_approximation_whenever_conditions_hold(self, n, d, f, cores):
        cache = 256 * 1024
        assume(theorem2_conditions_hold(n=n, d=d, f=f, cores=cores, cache_bytes=cache))
        ours = theorem2_plan(n=n, d=d, f=f, cores=cores, cache_bytes=cache)
        assert ours.feasible
        # Theorem 2's proof bounds the real-valued Q = 8nf/S against the
        # universal lower bound 8nf, which in turn lower-bounds any
        # partitioner's g_comm. The plan's integer Q = ceil(8nf/S) adds
        # at most one round of index traffic, 2nd.
        rounding = 2.0 * n * d
        assert ours.comm_bytes <= 2.0 * gcomm_lower_bound(n, f) + rounding + 1e-6
        ideal = brute_force_optimum(n=n, d=d, f=f, cores=cores, cache_bytes=cache)
        assert ours.comm_bytes <= 2.0 * ideal.comm_bytes + rounding + 1e-6

    @given(
        n=st.integers(100, 5000),
        d=st.floats(2.0, 40.0),
        f=st.integers(16, 1024),
        p=st.integers(1, 32),
        q=st.integers(1, 256),
        gamma=st.floats(0.01, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_gcomm_above_lower_bound(self, n, d, f, p, q, gamma):
        assume(gamma >= 1.0 / p)  # gamma_P >= 1/P for any partitioner
        assert g_comm(n, d, f, p, q, gamma) >= gcomm_lower_bound(n, f) - 1e-9

    @given(
        n=st.integers(200, 8000),
        f=st.integers(64, 1024),
        cores=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_always_cache_feasible(self, n, f, cores):
        cache = 256 * 1024
        plan = theorem2_plan(n=n, d=10.0, f=f, cores=cores, cache_bytes=cache)
        assert plan.cache_bytes_per_round <= cache + 1e-9
        assert plan.q >= cores
