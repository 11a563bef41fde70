"""Amdahl helpers shared by the scaling experiments."""

from __future__ import annotations

from ..parallel.machine import MachineSpec

__all__ = ["amdahl_speedup", "gemm_simulated_time"]


def amdahl_speedup(cores: int, serial_fraction: float) -> float:
    """Classic Amdahl bound ``1 / (s + (1 - s)/p)``."""
    if cores <= 0:
        raise ValueError("cores must be positive")
    if not (0.0 <= serial_fraction <= 1.0):
        raise ValueError("serial_fraction must lie in [0, 1]")
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / cores)


def gemm_simulated_time(
    flops: float, machine: MachineSpec, *, cores: int
) -> float:
    """Dense weight-application time under the MKL-like Amdahl model."""
    if flops < 0:
        raise ValueError("flops must be non-negative")
    if cores <= 0:
        raise ValueError("cores must be positive")
    s = machine.gemm_serial_fraction
    return flops * machine.cost_flop * (s + (1.0 - s) / cores)
