"""Benchmark X1 — Theorem 2 in practice (partitioning ablation).

Compares the paper's feature-only plan against the brute-force optimum
with an ideal partitioner and a realistic random partitioner. Within the
theorem's preconditions the modeled communication ratio is <= 2.
"""

from __future__ import annotations

from repro.experiments import ablations
from repro.experiments.common import format_table


def test_ablation_partitioning_2approx(paper_bench):
    results = paper_bench(
        "ablation_partitioning",
        lambda: ablations.run_partitioning(),
        text=lambda r: format_table(
            r["rows"], title="X1: feature-only partitioning vs optimum"
        ),
    )
    for row in results["rows"]:
        if row["thm2_conditions"]:
            assert row["ratio_vs_ideal"] <= 2.0 + 1e-9
        # A random partitioner never beats the paper's plan here: gamma_P
        # stays so close to 1 that graph partitioning buys nothing.
        assert row["gcomm_random_MB"] >= row["gcomm_ours_MB"] * 0.999


def test_ablation_partitioner_gamma(paper_bench):
    """Measured gamma_P of real partitioners on a sampled subgraph: all
    stay far above the 1/P ideal, the premise of Theorem 2."""
    from repro.experiments.ablations import run_partitioner_gamma

    results = paper_bench(
        "ablation_partitioner_gamma",
        lambda: run_partitioner_gamma(seed=0),
        text=lambda r: format_table(
            r["rows"], title="X1b: measured gamma_P on a sampled subgraph"
        ),
    )
    for row in results["rows"]:
        for key in ("gamma_random", "gamma_bfs", "gamma_greedy"):
            # Far above the 1/P ideal (for P=2 "far" saturates near 1.0,
            # so assert a margin that scales with the available headroom).
            lb = row["gamma_lower_bound"]
            assert row[key] >= lb + 0.3 * (1.0 - lb)
