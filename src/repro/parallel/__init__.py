"""Simulated shared-memory machine: spec and cost accounting."""

from .costmodel import CostCounter, parallel_time
from .executor import ParallelRegion, WorkSpanExecutor, static_chunk_makespan
from .machine import MachineSpec, xeon_40core

__all__ = [
    "MachineSpec",
    "xeon_40core",
    "CostCounter",
    "ParallelRegion",
    "WorkSpanExecutor",
    "static_chunk_makespan",
    "parallel_time",
]
