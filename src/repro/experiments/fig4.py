"""Experiment F4 — Figure 4: frontier-sampler scaling.

Panel A: sampling speedup vs the number of concurrent sampler instances
``p_inter`` with AVX enabled (``p_intra = 8``). The paper observes
near-linear scaling with a knee between 20 and 40 cores caused by NUMA —
all instances read the one shared adjacency list across sockets.

Panel B: per-instance AVX gain (``p_intra = 8`` vs scalar) at several
``p_inter``. The paper measures ~4x on average, data-dependent: vertices
with degree < 8 under-fill the vector lanes.
"""

from __future__ import annotations

import numpy as np

from ..graphs.datasets import make_dataset
from ..parallel.machine import xeon_40core
from ..sampling.cost import pool_fill_times, simulated_sampler_time
from ..sampling.dashboard import DashboardFrontierSampler
from .common import EXPERIMENT_SCALES, format_table, paper_budget

__all__ = ["run", "format_results", "DEFAULT_P_INTER"]

DEFAULT_P_INTER = (1, 5, 10, 20, 30, 40)


def _sampler_for(ds) -> DashboardFrontierSampler:
    budget = paper_budget(ds.graph.num_vertices)
    cap = 30 if ds.name == "amazon" else None  # the paper's Amazon cap
    # Paper-figure regeneration pins the scalar oracle: its RNG stream is
    # the one the committed modeled-cost artifacts were produced with, so
    # the tables stay bit-stable across engine work.
    return DashboardFrontierSampler(
        ds.graph,
        frontier_size=max(budget // 6, 16),
        budget=budget,
        eta=2.0,
        max_entries_per_vertex=cap,
        engine="reference",
    )


def run(
    *,
    datasets: list[str] | None = None,
    scales: dict[str, float] | None = None,
    num_subgraphs: int = 40,
    seed: int = 0,
) -> dict[str, object]:
    """Run the Figure 4 sampler-scaling experiment: Dashboard samplers at
    eta = 2, priced on the 40-core Xeon at every ``DEFAULT_P_INTER``."""
    scales = scales or EXPERIMENT_SCALES
    names = datasets or list(scales)
    machine = xeon_40core()
    rng = np.random.default_rng(seed)

    rows_a = []
    rows_b = []
    for name in names:
        ds = make_dataset(name, scale=scales[name], seed=seed)
        sampler = _sampler_for(ds)
        stats = [sampler.sample(rng).stats for _ in range(num_subgraphs)]

        # Panel A: throughput speedup of p_inter concurrent instances
        # (AVX on) vs one instance (AVX on).
        serial_rate = len(stats) / sum(
            pool_fill_times(stats, machine, instances=1, p_intra=8)
        )
        for p in DEFAULT_P_INTER:
            # Steady-state throughput: three full refill batches of
            # exactly p_inter instances.
            fills = pool_fill_times(stats, machine, instances=p, p_intra=8, fills=3)
            rate = len(fills) * p / sum(fills)
            rows_a.append(
                {
                    "dataset": name,
                    "p_inter": p,
                    "sampling_speedup": rate / serial_rate,
                }
            )

        # Panel B: AVX gain at each p_inter (scalar vs 8-lane, same numa).
        for p in DEFAULT_P_INTER:
            contention = machine.sampler_contention_factor(p)
            t_scalar = sum(
                simulated_sampler_time(s, machine, p_intra=1, contention_factor=contention)
                for s in stats
            )
            t_avx = sum(
                simulated_sampler_time(s, machine, p_intra=8, contention_factor=contention)
                for s in stats
            )
            rows_b.append(
                {"dataset": name, "p_inter": p, "avx_speedup": t_scalar / t_avx}
            )
    return {"panel_a": rows_a, "panel_b": rows_b}


def format_results(results: dict[str, object]) -> str:
    """Render the paper-style table for printed output."""
    a = format_table(
        results["panel_a"],  # type: ignore[arg-type]
        title="Figure 4A: sampling speedup vs p_inter (p_intra = 8)",
    )
    b = format_table(
        results["panel_b"],  # type: ignore[arg-type]
        title="Figure 4B: AVX speedup by p_inter",
    )
    return a + "\n\n" + b
