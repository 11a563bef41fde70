"""Work-span executor: simulate ``pardo`` regions on the machine model.

The paper's Algorithms 3-4 are written with ``pardo`` loops (statically
chunked parallel-for) and barriers. This executor evaluates such programs
on a :class:`MachineSpec`: the caller describes each parallel region as
per-task costs; the executor returns the simulated makespan under static
chunking (each worker takes a contiguous chunk — the OpenMP-static model
the paper's C++ implementation uses) or dynamic (LPT) scheduling, and
accumulates a critical-path (span) total across regions separated by
barriers.

It is the general-purpose counterpart to the special-cased models used by
the sampler and propagator, and is exercised by the Algorithm-4 simulation
tests (probing, chunked invalidation, cleanup moves).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .costmodel import parallel_time
from .machine import MachineSpec

__all__ = ["ParallelRegion", "WorkSpanExecutor", "static_chunk_makespan"]


def static_chunk_makespan(task_costs: Sequence[float], workers: int) -> float:
    """Makespan of contiguous static chunking (OpenMP ``schedule(static)``).

    Tasks are split into ``workers`` contiguous chunks of near-equal
    *count* (not cost); the makespan is the heaviest chunk. Matches how
    the paper parallelizes per-entry DB updates where task order is fixed
    by memory layout.
    """
    if workers <= 0:
        raise ValueError("workers must be positive")
    costs = np.asarray(task_costs, dtype=np.float64)
    if costs.size == 0:
        return 0.0
    bounds = np.linspace(0, costs.size, min(workers, costs.size) + 1).astype(int)
    return float(
        max(costs[lo:hi].sum() for lo, hi in zip(bounds[:-1], bounds[1:]))
    )


@dataclass(frozen=True)
class ParallelRegion:
    """One barrier-delimited parallel region.

    Attributes
    ----------
    name:
        Label for traces.
    task_costs:
        Cost of each independent task in the region.
    schedule:
        ``"static"`` (contiguous chunks) or ``"dynamic"`` (LPT work pool).
    serial_work:
        Work executed by a single worker before the parallel part (e.g.
        the cumulative-sum in para_CLEANUP).
    """

    name: str
    task_costs: tuple[float, ...]
    schedule: str = "static"
    serial_work: float = 0.0

    def __post_init__(self) -> None:
        if self.schedule not in ("static", "dynamic"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.serial_work < 0 or any(c < 0 for c in self.task_costs):
            raise ValueError("costs must be non-negative")

    @property
    def total_work(self) -> float:
        return self.serial_work + float(sum(self.task_costs))

    def makespan(self, workers: int) -> float:
        """Simulated completion time of this region on ``workers``."""
        if self.schedule == "static":
            par = static_chunk_makespan(self.task_costs, workers)
        else:
            par = parallel_time(list(self.task_costs), workers)
        return self.serial_work + par


@dataclass
class WorkSpanExecutor:
    """Accumulates barrier-separated regions into work/span totals.

    ``work`` is the serial total (T1); ``span`` is the simulated parallel
    time with ``workers`` workers (T_p, lower-bounded by the per-region
    critical path). ``speedup`` = T1 / T_p — the quantity the paper's
    scalability claims are stated in.
    """

    machine: MachineSpec
    workers: int
    regions: list[ParallelRegion] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.workers > self.machine.num_cores:
            raise ValueError(
                f"workers {self.workers} exceed machine cores {self.machine.num_cores}"
            )

    def run(self, region: ParallelRegion) -> float:
        """Record one region; returns its simulated makespan."""
        self.regions.append(region)
        return region.makespan(self.workers)

    @property
    def work(self) -> float:
        return sum(r.total_work for r in self.regions)

    @property
    def span(self) -> float:
        return sum(r.makespan(self.workers) for r in self.regions)

    @property
    def speedup(self) -> float:
        s = self.span
        return self.work / s if s > 0 else 1.0

    def region_breakdown(self) -> dict[str, float]:
        """Simulated time by region name (summed across repetitions)."""
        out: dict[str, float] = {}
        for r in self.regions:
            out[r.name] = out.get(r.name, 0.0) + r.makespan(self.workers)
        return out
