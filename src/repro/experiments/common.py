"""Shared experiment infrastructure: scales, formatting, defaults.

Every experiment module exposes ``run(...) -> dict`` returning plain data
(rows / series) plus a ``format_*`` helper that renders the same rows the
paper's table or figure reports. Benchmarks call ``run`` and print; tests
assert on the returned data.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, Mapping

from ..graphs.datasets import Dataset
from ..train.config import TrainConfig
from ..train.trainer import GraphSamplingTrainer, IterationMetrics

__all__ = [
    "EXPERIMENT_SCALES",
    "DATASET_NAMES",
    "paper_budget",
    "metered_run",
    "format_table",
    "format_float",
    "to_jsonable",
    "write_bench_json",
]

# Default generation scales per dataset (fraction of published vertex
# count), chosen so each profile lands in the 1-4k vertex range where a
# pure-numpy run finishes in seconds while preserving the profiles'
# *relative* sizes and degree structure.
EXPERIMENT_SCALES: dict[str, float] = {
    "ppi": 0.08,
    "reddit": 0.010,
    "yelp": 0.004,
    "amazon": 0.002,
}

DATASET_NAMES = tuple(EXPERIMENT_SCALES)


def paper_budget(n: int) -> int:
    """Subgraph budget of the paper experiments on an ``n``-vertex graph: a
    quarter of it, at most 1200 (the down-scaled stand-in for the paper's
    8000-vertex subgraphs) and at least 64."""
    return max(min(n // 4, 1200), 64)


def metered_run(
    dataset: Dataset, *, hidden_dims: tuple[int, ...], iterations: int, seed: int
) -> tuple[list[IterationMetrics], int]:
    """Train the proposed method just long enough to meter ``iterations``.

    The scaling experiments (Figure 3, Table II) re-price one short run:
    paper budget, ``frontier = budget / 6``, whole epochs until
    ``iterations`` iterations ran, no evaluation. Returns the first
    ``iterations`` :class:`IterationMetrics` and the batches per epoch.
    """
    budget = paper_budget(dataset.train_idx.shape[0])
    config = TrainConfig(
        hidden_dims=hidden_dims,
        frontier_size=max(budget // 6, 16),
        budget=budget,
        epochs=1,
        eval_every=10**9,
        seed=seed,
    )
    metrics: list[IterationMetrics] = []
    with GraphSamplingTrainer(dataset, config) as trainer:
        while len(metrics) < iterations:
            metrics.extend(trainer.train().iteration_metrics)
    return metrics[:iterations], trainer.batches_per_epoch


def format_float(x: object, digits: int = 3) -> str:
    """Human-friendly scalar formatting (thousands separators, 3 sig)."""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        if x != x:  # NaN
            return "nan"
        if abs(x) >= 1000:
            return f"{x:,.0f}"
        return f"{x:.{digits}f}"
    if isinstance(x, int) and abs(x) >= 1000:
        return f"{x:,}"
    return str(x)


def to_jsonable(obj: object) -> object:
    """Recursively convert experiment results to JSON-serializable data.

    Handles numpy scalars/arrays, tuples, sets and non-finite floats
    (mapped to ``None``, since JSON has no NaN/inf).
    """
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return to_jsonable(obj.tolist())
    if isinstance(obj, float):
        return obj if obj == obj and abs(obj) != float("inf") else None
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def write_bench_json(
    path: pathlib.Path | str,
    name: str,
    results: object,
    *,
    record=None,
    samples: dict | None = None,
    env: dict | None = None,
) -> pathlib.Path:
    """Write one benchmark's results as machine-readable JSON.

    The ``BENCH_<name>.json`` files written next to the printed tables
    are the cross-PR benchmark trajectory: each holds ``{"bench": name,
    "results": ..., "record": ...}`` with everything converted via
    :func:`to_jsonable`. The actual writer is
    :func:`repro.obs.record.write_bench_json` (this is a delegating
    alias kept for the many existing call sites), which embeds a
    normalized :class:`~repro.obs.record.BenchRecord` — environment
    fingerprint plus raw samples — into every file; pass ``samples``
    (metric name → raw values) or a prebuilt ``record`` to enrich it.
    """
    from ..obs.record import write_bench_json as _write

    return _write(path, name, results, record=record, samples=samples, env=env)


def format_table(
    rows: Iterable[Mapping[str, object]],
    *,
    columns: list[str] | None = None,
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width ASCII table (paper-style)."""
    rows = list(rows)
    if not rows:
        return (title + "\n(empty)") if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[format_float(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(c.ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
