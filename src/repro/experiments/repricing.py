"""Re-price one metered training run at arbitrary parallelism.

Scaling experiments (Figures 3 & 4, Table II) need per-phase times at many
core counts. Instead of re-running training once per configuration, the
trainer records raw :class:`~repro.train.trainer.IterationMetrics` and this
module converts them into simulated per-iteration phase times for any
``(cores, p_intra)`` — the costs are metered quantities, so the conversion
is exact and instant.
"""

from __future__ import annotations

import numpy as np

from ..analysis.speedup import gemm_simulated_time
from ..parallel.machine import MachineSpec
from ..sampling.cost import pool_fill_times
from ..train.trainer import IterationMetrics

__all__ = ["phase_times_per_iteration", "iteration_time", "speedup_table"]


def phase_times_per_iteration(
    metrics: list[IterationMetrics],
    machine: MachineSpec,
    *,
    cores: int,
    p_intra: int = 8,
) -> dict[str, float]:
    """Average per-iteration simulated time of each phase at ``cores``.

    Sampling follows Algorithm 5: ``cores`` sampler instances refill the
    pool together (LPT makespan over the batch, amortized over the batch's
    iterations) with the machine's NUMA factor at that occupancy. Feature
    propagation re-evaluates the stored reports; weight application
    re-evaluates the GEMM flop counts under the Amdahl model.
    """
    if not metrics:
        raise ValueError("no iteration metrics to price")
    if cores <= 0:
        raise ValueError("cores must be positive")
    # Pool fills of exactly `cores` subgraphs (Algorithm 5: one sampler
    # instance per core); per-iteration time = fill makespan / batch size.
    fill_times = pool_fill_times(
        [m.sampler_stats for m in metrics], machine, instances=cores, p_intra=p_intra
    )
    sampling = float(np.mean([t / cores for t in fill_times]))

    featprop = float(
        np.mean(
            [
                sum(r.simulated_time(machine, cores=cores) for r in m.prop_reports)
                for m in metrics
            ]
        )
    )
    weight = float(
        np.mean(
            [
                gemm_simulated_time(m.gemm_flops, machine, cores=cores)
                for m in metrics
            ]
        )
    )
    return {
        "sampling": sampling,
        "feature_propagation": featprop,
        "weight_application": weight,
    }


def iteration_time(phases: dict[str, float]) -> float:
    """Total per-iteration time across all phases."""
    return sum(phases.values())


def speedup_table(
    metrics: list[IterationMetrics],
    machine: MachineSpec,
    *,
    cores_list: list[int],
    p_intra: int = 8,
) -> dict[int, dict[str, float]]:
    """Per-core-count phase times plus iteration totals and speedups.

    Returns ``{cores: {phase: time, "total": t, "speedup": s}}`` with
    speedup relative to the 1-core (AVX-enabled, matching the paper's
    serial baseline) configuration.
    """
    out: dict[int, dict[str, float]] = {}
    base_total: float | None = None
    for cores in sorted(set(cores_list) | {1}):
        phases = phase_times_per_iteration(
            metrics, machine, cores=cores, p_intra=p_intra
        )
        total = iteration_time(phases)
        if cores == 1:
            base_total = total
        entry = dict(phases)
        entry["total"] = total
        out[cores] = entry
    assert base_total is not None
    for cores, entry in out.items():
        entry["speedup"] = base_total / entry["total"] if entry["total"] else 1.0
    return {c: out[c] for c in sorted(out) if c in set(cores_list) | {1}}
