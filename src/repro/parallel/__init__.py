"""Simulated shared-memory machine: spec and cost accounting."""

from .costmodel import CostCounter, parallel_time, simulated_time
from .executor import ParallelRegion, WorkSpanExecutor, static_chunk_makespan
from .machine import MachineSpec, laptop_4core, xeon_40core

__all__ = [
    "MachineSpec",
    "xeon_40core",
    "laptop_4core",
    "CostCounter",
    "ParallelRegion",
    "WorkSpanExecutor",
    "static_chunk_makespan",
    "simulated_time",
    "parallel_time",
]
