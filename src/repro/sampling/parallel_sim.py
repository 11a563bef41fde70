"""Explicit simulation of the parallel Dashboard sampler (Algorithm 4).

:mod:`repro.sampling.cost` prices sampler runs with closed-form terms.
This module instead *executes* Algorithm 3/4's parallel structure on the
work-span executor, one region per ``pardo`` block:

* ``para_POP_FRONTIER`` — a probing region (each round: p concurrent
  probes, geometric until a hit; sequential across rounds) followed by a
  statically-chunked invalidation of the popped vertex's ``deg`` entries;
* ``para_ADD_TO_FRONTIER`` — statically-chunked writes of ``3 * deg``
  slots;
* ``para_CLEANUP`` — a serial IA cumulative-sum plus chunked entry moves.

Because it replays a *real* Dashboard run (the per-pop degrees and cleanup
events of an actual sample), the resulting speedup curves validate
Theorem 1 against measured workloads rather than expectations — the
theorem-verification experiment of the test suite and the X2 bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..parallel.executor import ParallelRegion, WorkSpanExecutor
from ..parallel.machine import MachineSpec
from .cost import probe_rounds_expected

__all__ = ["PopEvent", "CleanupEvent", "SamplerReplay", "record_replay", "simulate_replay"]


@dataclass(frozen=True)
class PopEvent:
    """One pop: entries invalidated and the valid ratio at pop time."""

    entries: int
    valid_ratio: float
    new_entries: int  # entries appended for the replacement vertex


@dataclass(frozen=True)
class CleanupEvent:
    """One cleanup: IA length traversed and alive entries moved."""

    ia_entries: int
    moved_entries: int


@dataclass(frozen=True)
class SamplerReplay:
    """The event log of one frontier-sampling run."""

    pops: tuple[PopEvent, ...]
    cleanups: tuple[CleanupEvent, ...]
    initial_entries: int


def record_replay(
    graph: CSRGraph,
    *,
    frontier_size: int,
    budget: int,
    eta: float = 2.0,
    max_entries_per_vertex: int | None = None,
    rng: np.random.Generator,
) -> SamplerReplay:
    """Run the frontier-sampling process and log its parallel-relevant
    events (per-pop degrees, valid ratios, cleanup sizes).

    This intentionally re-implements the *process* (not the Dashboard
    arrays) so the log captures exactly what Algorithm 4's regions depend
    on; distribution-level agreement with the real sampler is covered by
    the Dashboard's own tests.
    """
    if frontier_size <= 0 or budget < frontier_size:
        raise ValueError("invalid frontier/budget")
    if np.any(graph.degrees == 0):
        raise ValueError("min degree >= 1 required")
    cap = max_entries_per_vertex

    def entries_of(v: int) -> int:
        d = graph.degree(v)
        return min(d, cap) if cap is not None else d

    d_bar = max(graph.average_degree, 1.0)
    if cap is not None:
        d_bar = min(d_bar, float(cap))
    capacity = int(np.ceil(eta * frontier_size * d_bar))

    frontier = list(rng.choice(graph.num_vertices, size=frontier_size, replace=False))
    weights = [entries_of(v) for v in frontier]
    used = sum(weights)
    capacity = max(capacity, used + max(weights))
    alive = used

    pops: list[PopEvent] = []
    cleanups: list[CleanupEvent] = []
    initial = used
    num_added = frontier_size
    for _ in range(budget - frontier_size):
        total = sum(weights)
        probs = np.asarray(weights, dtype=np.float64) / total
        slot = int(rng.choice(len(frontier), p=probs))
        popped_entries = weights[slot]
        valid_ratio = alive / capacity
        replacement = graph.random_neighbor(frontier[slot], rng)
        new_entries = entries_of(int(replacement))
        if used + new_entries > capacity:
            cleanups.append(
                CleanupEvent(ia_entries=num_added, moved_entries=alive - popped_entries)
            )
            used = alive - popped_entries
            num_added = frontier_size
        frontier[slot] = int(replacement)
        alive = alive - popped_entries + new_entries
        used += new_entries
        num_added += 1
        pops.append(
            PopEvent(
                entries=popped_entries,
                valid_ratio=max(valid_ratio, 1e-9),
                new_entries=new_entries,
            )
        )
        weights[slot] = new_entries
    return SamplerReplay(
        pops=tuple(pops), cleanups=tuple(cleanups), initial_entries=initial
    )


def simulate_replay(
    replay: SamplerReplay,
    machine: MachineSpec,
    *,
    workers: int,
) -> WorkSpanExecutor:
    """Execute the replay's Algorithm-4 regions on ``workers`` lanes.

    Returns the executor (work, span, speedup, per-region breakdown).
    """
    ex = WorkSpanExecutor(machine, workers=workers)
    cost_probe = machine.cost_rand + machine.cost_mem
    for pop in replay.pops:
        # Probing: expected sequential rounds with `workers` concurrent
        # probes; each round is one parallel region of `workers` tasks,
        # collapsed here into its serial_work equivalent (rounds are
        # dependent, so they cannot overlap).
        rounds = probe_rounds_expected(pop.valid_ratio, workers)
        ex.run(
            ParallelRegion(
                "probe",
                task_costs=(),
                serial_work=rounds * cost_probe,
            )
        )
        # Invalidation: deg slot writes, statically chunked.
        ex.run(
            ParallelRegion(
                "invalidate",
                task_costs=(machine.cost_mem,) * pop.entries,
                schedule="static",
            )
        )
        # Append: 3 slots per new entry.
        ex.run(
            ParallelRegion(
                "append",
                task_costs=(machine.cost_mem,) * (3 * pop.new_entries),
                schedule="static",
            )
        )
    for ev in replay.cleanups:
        ex.run(
            ParallelRegion(
                "cleanup",
                task_costs=(machine.cost_mem,) * (3 * ev.moved_entries),
                schedule="static",
                serial_work=ev.ia_entries * machine.cost_mem,
            )
        )
    return ex
