"""Scaling simulation: reproduce the paper's Figure 3/4 curves locally.

Runs one metered training run on the Reddit profile and re-prices it on
the simulated dual-socket 40-core Xeon at 1-40 cores, printing:

* per-phase speedups (sampling / feature propagation / weight application)
  and the iteration total — Figure 3 A-C;
* the execution-time breakdown per core count — Figure 3 D;
* the frontier sampler's inter-instance scaling and AVX gain — Figure 4.

Usage::

    python examples/scaling_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro import TrainConfig, GraphSamplingTrainer, make_dataset, xeon_40core
from repro.experiments.repricing import phase_times_per_iteration
from repro.parallel.costmodel import VECTOR_LANES
from repro.sampling import DashboardFrontierSampler, simulated_sampler_time

CORES = (1, 5, 10, 20, 40)


def main() -> None:
    dataset = make_dataset("reddit", scale=0.01, seed=0)
    machine = xeon_40core()
    print(f"dataset: {dataset.graph}")
    print(
        f"simulated platform: {machine.num_cores} cores "
        f"({machine.num_sockets} sockets), AVX x{VECTOR_LANES}, "
        f"L2 {machine.l2_bytes // 1024} KB"
    )

    # --- Figure 3: metered training, re-priced at each core count -------
    cfg = TrainConfig(
        hidden_dims=(512, 512), frontier_size=60, budget=380, epochs=1,
        eval_every=10**9, seed=0,
    )
    trainer = GraphSamplingTrainer(dataset, cfg)
    result = trainer.train()
    metrics = result.iteration_metrics

    base = phase_times_per_iteration(metrics, machine, cores=1, p_intra=8, instances=1)
    base_total = sum(base.values())
    print("\nFigure 3 — phase speedups vs cores (hidden dim 512):")
    print(f"{'cores':>5} {'iteration':>10} {'featprop':>9} {'weight':>7} "
          f"{'| sampling%':>11} {'featprop%':>10} {'weight%':>8}")
    for cores in CORES:
        phases = phase_times_per_iteration(
            metrics, machine, cores=cores, p_intra=8, instances=cores
        )
        total = sum(phases.values())
        print(
            f"{cores:>5} {base_total / total:>10.2f} "
            f"{base['feature_propagation'] / phases['feature_propagation']:>9.2f} "
            f"{base['weight_application'] / phases['weight_application']:>7.2f} "
            f"| {phases['sampling'] / total:>9.2%} "
            f"{phases['feature_propagation'] / total:>9.2%} "
            f"{phases['weight_application'] / total:>8.2%}"
        )

    # --- Figure 4: sampler scaling --------------------------------------
    sampler = DashboardFrontierSampler(
        trainer.train_graph, frontier_size=60, budget=380, eta=2.0
    )
    rng = np.random.default_rng(0)
    stats = [sampler.sample(rng).stats for _ in range(12)]
    base_cost = np.mean(
        [simulated_sampler_time(s, machine, p_intra=8) for s in stats]
    )
    print("\nFigure 4A — sampler throughput speedup vs p_inter (AVX on):")
    for p in CORES:
        contention = machine.sampler_contention_factor(p)
        per_inst = np.mean(
            [
                simulated_sampler_time(
                    s, machine, p_intra=8, contention_factor=contention
                )
                for s in stats
            ]
        )
        print(f"  p_inter={p:>2}: {p * base_cost / per_inst:>6.2f}x")

    print("\nFigure 4B — AVX gain (p_intra 8 vs 1):")
    t1 = np.mean([simulated_sampler_time(s, machine, p_intra=1) for s in stats])
    t8 = np.mean([simulated_sampler_time(s, machine, p_intra=8) for s in stats])
    print(f"  {t1 / t8:.2f}x (paper: ~4x average, degree-dependent)")


if __name__ == "__main__":
    main()
