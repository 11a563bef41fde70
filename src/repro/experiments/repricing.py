"""The one pricer: modeled time of a metered training run, after the run.

Training keeps no modeled clock. The trainer records raw
:class:`~repro.train.trainer.IterationMetrics` — the sampler's operation
stats, one propagation report per pass, the GEMM flop count — and this
module converts them into simulated phase times for any ``(machine,
cores, p_intra, instances)``, which every call site states: the costs are
metered quantities, so the conversion is exact and instant, and every
modeled number of Figures 2-4 and Table II is priced here.

Each phase is priced one way:

* sampling — ``instances`` sampler instances with ``p_intra`` AVX lanes
  fill the pool together (:func:`repro.sampling.cost.pool_fill_times`);
  a subgraph costs the fill's makespan over ``instances``;
* feature propagation — Algorithm 6 at Theorem 2's partition count for
  the ``cores`` being priced (:func:`propagation_time`);
* weight application — the GEMM flop count under the MKL-like Amdahl
  model (:func:`repro.analysis.speedup.gemm_simulated_time`).
"""

from __future__ import annotations

import numpy as np

from ..analysis.speedup import gemm_simulated_time
from ..parallel.machine import MachineSpec
from ..propagation.feature_prop import PropagationReport
from ..propagation.partition_model import g_comm, g_comp, theorem2_plan
from ..sampling.cost import pool_fill_times
from ..train.trainer import IterationMetrics

__all__ = [
    "PHASES",
    "feature_partitions",
    "propagation_time",
    "iteration_phase_times",
    "cumulative_time",
    "phase_times_per_iteration",
    "iteration_time",
    "speedup_table",
]

PHASES = ("sampling", "feature_propagation", "weight_application")


def feature_partitions(
    report: PropagationReport, machine: MachineSpec, *, cores: int
) -> int:
    """Theorem 2's ``Q = max(C, ceil(8nf/S_cache))`` for one pass on
    ``cores`` workers, capped at ``f`` (a feature cannot be split finer
    than one column)."""
    plan = theorem2_plan(
        n=report.n, d=report.d, f=report.f, cores=cores, cache_bytes=machine.l2_bytes
    )
    return min(plan.q, max(report.f, 1))


def propagation_time(
    report: PropagationReport, machine: MachineSpec, *, cores: int
) -> float:
    """Simulated duration of one propagation pass on ``cores`` workers.

    The pass runs as :func:`feature_partitions` chunks. Compute scales
    with ``cores``; streamed bytes scale with ``min(cores,
    dram_saturation_cores)`` (bandwidth ceiling). The blend reproduces the
    paper's ~25x feature-propagation speedup at 40 cores.
    """
    if cores <= 0:
        raise ValueError("cores must be positive")
    q = feature_partitions(report, machine, cores=cores)
    n, d, f = report.n, report.d, report.f
    # Aggregation is an irregular gather-accumulate: Algorithm 6 keeps
    # its working set cache-resident, but the gather stream still moves
    # through the shared memory system, so both terms are bounded by
    # the aggregate-bandwidth ceiling (the paper's feature propagation
    # tops out near 25x on 40 cores).
    eff_cores = min(float(cores), machine.dram_saturation_cores)
    comp_time = g_comp(n, d, f) * machine.cost_gather / eff_cores
    comm_time = g_comm(n, d, f, 1, q, 1.0) * machine.dram_cost_per_byte / eff_cores
    return comp_time + comm_time


def iteration_phase_times(
    metrics: list[IterationMetrics],
    machine: MachineSpec,
    *,
    cores: int,
    p_intra: int,
    instances: int,
) -> list[tuple[float, float, float]]:
    """``(sampling, feature_propagation, weight_application)`` of every
    iteration, in order.

    Each subgraph's sampling is its share of a fill in which all
    ``instances`` sampler instances draw a subgraph like it — the price of
    the subgraph the trainer took, as opposed to the steady-state fills of
    :func:`phase_times_per_iteration`.
    """
    out = []
    for m in metrics:
        (makespan,) = pool_fill_times(
            [m.sampler_stats], machine, instances=instances, p_intra=p_intra
        )
        featprop = sum(propagation_time(r, machine, cores=cores) for r in m.prop_reports)
        weight = gemm_simulated_time(m.gemm_flops, machine, cores=cores)
        out.append((makespan / instances, featprop, weight))
    return out


def cumulative_time(
    metrics: list[IterationMetrics],
    machine: MachineSpec,
    *,
    cores: int,
    p_intra: int,
    instances: int,
) -> list[float]:
    """Modeled time elapsed at the end of each iteration: the running sum
    of :func:`iteration_phase_times`, phase by phase in iteration order."""
    total = 0.0
    out = []
    for phases in iteration_phase_times(
        metrics, machine, cores=cores, p_intra=p_intra, instances=instances
    ):
        for t in phases:
            total += t
        out.append(total)
    return out


def phase_times_per_iteration(
    metrics: list[IterationMetrics],
    machine: MachineSpec,
    *,
    cores: int,
    p_intra: int,
    instances: int,
) -> dict[str, float]:
    """Average per-iteration simulated time of each phase at ``cores``.

    Sampling follows Algorithm 5 in steady state: consecutive batches of
    ``instances`` metered subgraphs refill the pool together (LPT
    makespan over the batch, amortized over the batch's iterations) with
    the machine's contention factor at that occupancy.
    """
    if not metrics:
        raise ValueError("no iteration metrics to price")
    if cores <= 0:
        raise ValueError("cores must be positive")
    fill_times = pool_fill_times(
        [m.sampler_stats for m in metrics],
        machine,
        instances=instances,
        p_intra=p_intra,
    )
    sampling = float(np.mean([t / instances for t in fill_times]))
    per_iteration = iteration_phase_times(
        metrics, machine, cores=cores, p_intra=p_intra, instances=instances
    )
    featprop = float(np.mean([t[1] for t in per_iteration]))
    weight = float(np.mean([t[2] for t in per_iteration]))
    return dict(zip(PHASES, (sampling, featprop, weight)))


def iteration_time(phases: dict[str, float]) -> float:
    """Total per-iteration time across all phases."""
    return sum(phases.values())


def speedup_table(
    metrics: list[IterationMetrics],
    machine: MachineSpec,
    *,
    cores_list: list[int],
    p_intra: int,
) -> dict[int, dict[str, float]]:
    """Per-core-count phase times plus iteration totals and speedups.

    Each core count runs Algorithm 5's layout: one sampler instance per
    core. Returns ``{cores: {phase: time, "total": t, "speedup": s}}``
    with speedup relative to the 1-core configuration at the same
    ``p_intra`` (the paper's AVX-enabled serial baseline).
    """
    out: dict[int, dict[str, float]] = {}
    base_total: float | None = None
    for cores in sorted(set(cores_list) | {1}):
        phases = phase_times_per_iteration(
            metrics, machine, cores=cores, p_intra=p_intra, instances=cores
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
