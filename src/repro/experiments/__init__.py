"""Experiment harness: one module per paper table/figure plus ablations.

Each module exposes ``run(...) -> dict`` (plain rows/series) and a
``format_results`` helper rendering the paper-style table. See DESIGN.md's
experiment index for the mapping to paper artifacts.
"""

from . import ablations, extensions, fig2, fig3, fig4, serving, table1, table2
from .common import (
    DATASET_NAMES,
    EXPERIMENT_SCALES,
    format_table,
    to_jsonable,
)
from .plotting import ascii_plot, ascii_speedup_plot
from .repricing import iteration_time, phase_times_per_iteration, speedup_table

__all__ = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "table2",
    "ablations",
    "extensions",
    "serving",
    "EXPERIMENT_SCALES",
    "DATASET_NAMES",
    "format_table",
    "to_jsonable",
    "phase_times_per_iteration",
    "iteration_time",
    "speedup_table",
    "ascii_plot",
    "ascii_speedup_plot",
]
