"""Experiment T1 — Table I: dataset statistics (paper vs generated)."""

from __future__ import annotations

from ..graphs.datasets import Dataset, make_dataset, table1_rows
from .common import EXPERIMENT_SCALES, format_table

__all__ = ["run", "format_results"]


def run(
    *, scales: dict[str, float] | None = None, seed: int = 0
) -> dict[str, object]:
    """Generate all four dataset profiles and tabulate their statistics."""
    scales = scales or EXPERIMENT_SCALES
    datasets: dict[str, Dataset] = {
        name: make_dataset(name, scale=scale, seed=seed)
        for name, scale in scales.items()
    }
    return {"rows": table1_rows(datasets), "datasets": datasets}


def format_results(results: dict[str, object]) -> str:
    """Render the paper-style table for printed output."""
    return format_table(
        results["rows"],  # type: ignore[arg-type]
        title="Table I: Dataset Statistics (paper vs generated)",
    )
