"""Experiment F3 — Figure 3: training-phase scaling and breakdown.

One short metered training run per (dataset, hidden dim) supplies raw
iteration metrics; re-pricing evaluates per-phase simulated times at every
core count, yielding the four panels of Figure 3:

* A — overall iteration speedup vs cores (paper: ~20x at 40 cores),
* B — feature-propagation speedup (paper: ~25x),
* C — weight-application speedup (paper: ~16x, MKL-bound),
* D — execution-time breakdown (sampling a small fraction throughout).
"""

from __future__ import annotations

from ..graphs.datasets import make_dataset
from ..parallel.machine import xeon_40core
from .common import EXPERIMENT_SCALES, format_table, metered_run
from .repricing import speedup_table

__all__ = ["run", "run_dataset", "format_results", "DEFAULT_CORES"]

DEFAULT_CORES = (1, 5, 10, 20, 40)


def run_dataset(
    name: str,
    *,
    scale: float,
    hidden: int,
    iterations: int = 6,
    seed: int = 0,
) -> dict[str, object]:
    """Figure 3 for one (dataset, hidden-dim) configuration, at every
    ``DEFAULT_CORES`` count with the 8-lane sampler."""
    ds = make_dataset(name, scale=scale, seed=seed)
    metrics, _ = metered_run(
        ds, hidden_dims=(hidden, hidden), iterations=iterations, seed=seed
    )
    per_cores = speedup_table(
        metrics, xeon_40core(), cores_list=list(DEFAULT_CORES), p_intra=8
    )
    base = per_cores[1]
    rows = []
    for cores in DEFAULT_CORES:
        entry = per_cores[cores]
        rows.append(
            {
                "dataset": name,
                "hidden": hidden,
                "cores": cores,
                "iteration_speedup": entry["speedup"],
                "featprop_speedup": base["feature_propagation"]
                / entry["feature_propagation"],
                "weight_speedup": base["weight_application"]
                / entry["weight_application"],
                "sampling_speedup": base["sampling"] / entry["sampling"],
                "frac_sampling": entry["sampling"] / entry["total"],
                "frac_featprop": entry["feature_propagation"] / entry["total"],
                "frac_weight": entry["weight_application"] / entry["total"],
            }
        )
    return {"rows": rows, "per_cores": per_cores}


def run(
    *,
    datasets: list[str] | None = None,
    scales: dict[str, float] | None = None,
    hidden_dims: tuple[int, ...] = (512, 1024),
    iterations: int = 6,
    seed: int = 0,
) -> dict[str, object]:
    """Run the Figure 3 scaling experiment across datasets and dims."""
    scales = scales or EXPERIMENT_SCALES
    names = datasets or list(scales)
    all_rows = []
    detail = {}
    for hidden in hidden_dims:
        for name in names:
            res = run_dataset(
                name,
                scale=scales[name],
                hidden=hidden,
                iterations=iterations,
                seed=seed,
            )
            all_rows.extend(res["rows"])  # type: ignore[arg-type]
            detail[(name, hidden)] = res["per_cores"]
    return {"rows": all_rows, "detail": detail}


def format_results(results: dict[str, object]) -> str:
    """Render the paper-style table for printed output."""
    return format_table(
        results["rows"],  # type: ignore[arg-type]
        title="Figure 3: phase speedups and execution-time breakdown",
    )
