"""Tests for the simulated machine specification."""

from __future__ import annotations

import pytest

from repro.parallel.costmodel import VECTOR_LANES
from repro.parallel.machine import MachineSpec, xeon_40core


class TestSpecValidation:
    def test_defaults_are_the_paper_platform(self):
        m = xeon_40core()
        assert m.num_cores == 40
        assert m.cores_per_socket == 20
        assert m.num_sockets == 2
        assert VECTOR_LANES == 8  # AVX2 over 32-bit ints
        assert m.l2_bytes == 256 * 1024

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_cores=0),
            dict(num_cores=30, cores_per_socket=20),
            dict(cost_rand=-1.0),
            dict(l2_bytes=0),
            dict(cost_flop=-1.0),
            dict(cost_mem=-1.0),
            dict(gemm_serial_fraction=1.0),
            dict(dram_saturation_cores=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            MachineSpec(**kwargs)


class TestContention:
    def test_one_instance_no_contention(self):
        assert xeon_40core().sampler_contention_factor(1) == 1.0

    def test_monotone_increasing(self):
        m = xeon_40core()
        vals = [m.sampler_contention_factor(p) for p in (1, 5, 10, 20, 30, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_cross_socket_slope_steeper(self):
        m = xeon_40core()
        within = m.sampler_contention_factor(20) - m.sampler_contention_factor(19)
        across = m.sampler_contention_factor(22) - m.sampler_contention_factor(21)
        assert across > within

    def test_invalid(self):
        with pytest.raises(ValueError):
            xeon_40core().sampler_contention_factor(0)
