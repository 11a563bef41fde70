"""Sampler-throughput microbenchmark: fast vs reference Dashboard engine.

Measures real wall-clock subgraphs/second of both
:class:`~repro.sampling.dashboard.DashboardFrontierSampler` engines on the
Reddit-profile dataset (the profile whose scale drives the paper's Fig. 4
sampling-cost discussion) and reports the speedup. The workload is sized
so the pop/replace/append loop dominates — the regime the vectorized
engine exists for; at trivial budgets the shared subgraph-induction cost
floors the ratio.

The ``series`` dict (clock ``wall``) carries per-repeat wall times for
each engine so the emitted ``BENCH_sampler_throughput.json`` feeds the
bench-record / bench-gate history tooling: the fast-engine series is the
protected baseline, the reference series documents the oracle's cost, and the
``throughput.fast`` series (subgraphs/sec, higher-is-better) is the
headline metric. Beside it the run times both engines at the e2e
benchmark's operating points (``OPERATING_POINTS``: small frontiers,
where the two engines are closest) and records the per-repeat ratio as
``speedup.<label>`` — a measurement on the record, with no bar.
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.datasets import make_dataset, training_view
from ..sampling.dashboard import ENGINES, DashboardFrontierSampler
from ..sampling.zoo import FAMILIES, make_sampler
from ..obs.record import MetricSeries
from .common import EXPERIMENT_SCALES, format_table

__all__ = [
    "run",
    "run_zoo",
    "format_results",
    "format_zoo_results",
    "DEFAULT_MIN_SPEEDUP",
    "DEFAULT_ZOO_MIN_SPEEDUP",
    "OPERATING_POINTS",
]

#: The speedup the fast engine is expected to clear on this workload
#: (asserted by ``benchmarks/bench_sampler_throughput.py`` and available
#: to ``sampler-bench --min-speedup``).
DEFAULT_MIN_SPEEDUP = 3.0

#: Per-family fast-vs-reference target for the zoo comparison: every
#: family must clear 2x (the dashboard clears far more; the cheap edge
#: families have less scalar work to beat).
DEFAULT_ZOO_MIN_SPEEDUP = 2.0


#: Where the e2e benchmark runs the Dashboard sampler — label ->
#: (profile, scale, frontier m, budget n) of ``ppi_small`` and
#: ``serve_mixed``, on the training view as the trainer samples it.
#: Recorded as ``speedup.<label>`` with no bar: on a 2-core x86 host the
#: vectorized engine reads about 0.9x the scalar one at m16 and 1.9x at
#: m50 (a round costs a fixed ~80 numpy calls, so small frontiers pay
#: the most per pop).
OPERATING_POINTS: dict[str, tuple[str, float, int, int]] = {
    "m16": ("ppi", 0.08, 16, 194),
    "m50": ("yelp", 0.010, 50, 600),
}


def _time_interleaved(samplers: dict, *, repeats: int, seed: int) -> tuple[dict, dict]:
    """Per-repeat wall seconds (and last-subgraph stats) of every sampler
    in ``samplers``, each drawing from its own ``default_rng(seed)``: one
    warm-up draw each (allocators, caches), then repeat ``i`` of every
    sampler back-to-back, so slow host drift hits all of them equally."""
    rngs = {key: np.random.default_rng(seed) for key in samplers}
    for key, sampler in samplers.items():
        sampler.sample(rngs[key])
    wall: dict = {key: [] for key in samplers}
    stats: dict = {}
    for _ in range(repeats):
        for key, sampler in samplers.items():
            t0 = time.perf_counter()
            sub = sampler.sample(rngs[key])
            wall[key].append(time.perf_counter() - t0)
            stats[key] = sub.stats
    return wall, stats


def _throughput(wall: list[float]) -> MetricSeries:
    """Subgraphs per second of each timed draw (higher is better)."""
    return MetricSeries([1.0 / t for t in wall], unit="subgraphs/s", direction="higher")


def _dashboards(graph: CSRGraph, *, budget: int, frontier_size: int) -> dict:
    """Both Dashboard engines on one workload, keyed by engine."""
    return {
        engine: DashboardFrontierSampler(
            graph, frontier_size=frontier_size, budget=budget, engine=engine
        )
        for engine in ENGINES
    }


def _workload(
    dataset: str,
    scale: float | None,
    seed: int,
    budget: int | None,
    frontier_size: int | None,
) -> tuple[CSRGraph, int, int]:
    """The graph to sample and the sizes the caller left unset: the
    standard experiment scale, ``budget = 3n/4`` (at most 1750, where the
    pop/replace loop rather than induction dominates) and ``frontier =
    budget/6``."""
    ds = make_dataset(
        dataset,
        scale=EXPERIMENT_SCALES[dataset] if scale is None else scale,
        seed=seed,
    )
    if budget is None:
        budget = max(min(3 * ds.graph.num_vertices // 4, 1750), 64)
    if frontier_size is None:
        frontier_size = max(budget // 6, 16)
    return ds.graph, budget, frontier_size


def run(
    *,
    dataset: str = "reddit",
    scale: float | None = None,
    budget: int | None = None,
    frontier_size: int | None = None,
    repeats: int = 12,
    seed: int = 0,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
) -> dict:
    """Time both engines on one workload; returns rows + raw samples.

    The default workload: Reddit profile at the standard experiment
    scale, ``budget = 3n/4`` and ``frontier = budget/6`` (the paper's
    frontier:budget ratio at a size where sampling work, not subgraph
    induction, dominates), then every ``OPERATING_POINTS`` entry.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    graph, budget, frontier_size = _workload(
        dataset, scale, seed, budget, frontier_size
    )

    wall, stats = _time_interleaved(
        _dashboards(graph, budget=budget, frontier_size=frontier_size),
        repeats=repeats,
        seed=seed,
    )

    rows = []
    med = {}
    for engine in ENGINES:
        times = np.asarray(wall[engine])
        med[engine] = float(np.median(times))
        rows.append(
            {
                "engine": engine,
                "median_ms": med[engine] * 1e3,
                "subgraphs_per_sec": 1.0 / med[engine],
                "probes_per_pop": stats[engine]["probes"]
                / max(stats[engine]["pops"], 1.0),
                "cleanups": stats[engine]["cleanups"],
            }
        )
    speedup = med["reference"] / med["fast"]
    points, point_series = {}, {}
    for label, (profile, point_scale, m, n) in OPERATING_POINTS.items():
        view, _ = training_view(
            make_dataset(profile, scale=point_scale, seed=seed),
            np.random.default_rng(seed),
        )
        point_wall, _ = _time_interleaved(
            _dashboards(view, budget=n, frontier_size=m), repeats=repeats, seed=seed
        )
        ratios = [r / f for r, f in zip(point_wall["reference"], point_wall["fast"])]
        point_series[f"speedup.{label}"] = MetricSeries(
            ratios, unit="ratio", direction="higher"
        )
        points[label] = {
            "dataset": profile,
            "frontier_size": m,
            "budget": n,
            "fast_median_ms": float(np.median(point_wall["fast"])) * 1e3,
            "reference_median_ms": float(np.median(point_wall["reference"])) * 1e3,
            "speedup": float(np.median(ratios)),
        }
    return {
        "clock": "wall",
        "dataset": dataset,
        "num_vertices": graph.num_vertices,
        "budget": budget,
        "frontier_size": frontier_size,
        "repeats": repeats,
        "rows": rows,
        "speedup": speedup,
        "min_speedup": min_speedup,
        "meets_target": bool(speedup >= min_speedup),
        "operating_points": points,
        "series": {
            "sample_wall_s.fast": MetricSeries(wall["fast"]),
            "sample_wall_s.reference": MetricSeries(wall["reference"]),
            "throughput.fast": _throughput(wall["fast"]),
            **point_series,
        },
    }


def run_zoo(
    *,
    dataset: str = "reddit",
    scale: float | None = None,
    budget: int | None = None,
    frontier_size: int | None = None,
    families: tuple[str, ...] | None = None,
    walk_depth: int = 3,
    repeats: int = 12,
    seed: int = 0,
    min_speedup: float = DEFAULT_ZOO_MIN_SPEEDUP,
) -> dict:
    """Four-family sampler comparison: fast vs reference per family.

    Same workload sizing as :func:`run` — Reddit profile, ``budget =
    3n/4`` — with every family built at that shared budget through
    :func:`repro.sampling.zoo.make_sampler`, so throughputs are
    comparable at fixed subgraph size. Timing is interleaved across all
    (family, engine) pairs per repeat so host drift hits every series
    equally. ``meets_target`` requires *every* family's fast engine to
    clear ``min_speedup``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    fams = FAMILIES if families is None else tuple(families)
    for fam in fams:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}; choose from {FAMILIES}")
    graph, budget, frontier_size = _workload(
        dataset, scale, seed, budget, frontier_size
    )

    samplers = {
        (fam, engine): make_sampler(
            fam,
            graph,
            budget=budget,
            frontier_size=frontier_size,
            engine=engine,
            walk_depth=walk_depth,
        )
        for fam in fams
        for engine in ENGINES
    }
    wall, stats = _time_interleaved(samplers, repeats=repeats, seed=seed)

    rows = []
    speedups: dict[str, float] = {}
    series: dict[str, MetricSeries] = {}
    for fam in fams:
        med = {}
        for engine in ENGINES:
            times = np.asarray(wall[(fam, engine)])
            med[engine] = float(np.median(times))
            series[f"sample_wall_s.{fam}.{engine}"] = MetricSeries(wall[(fam, engine)])
        series[f"throughput.{fam}.fast"] = _throughput(wall[(fam, "fast")])
        speedups[fam] = med["reference"] / med["fast"]
        rows.append(
            {
                "family": fam,
                "fast_median_ms": med["fast"] * 1e3,
                "reference_median_ms": med["reference"] * 1e3,
                "subgraphs_per_sec": 1.0 / med["fast"],
                "unique_vertices": stats[(fam, "fast")]["unique_vertices"],
                "speedup": speedups[fam],
            }
        )
    return {
        "clock": "wall",
        "dataset": dataset,
        "num_vertices": graph.num_vertices,
        "budget": budget,
        "frontier_size": frontier_size,
        "walk_depth": walk_depth,
        "families": list(fams),
        "repeats": repeats,
        "rows": rows,
        "speedups": speedups,
        "min_speedup": min_speedup,
        "meets_target": bool(
            all(s >= min_speedup for s in speedups.values())
        ),
        "series": series,
    }


def format_results(results: dict) -> str:
    """Render the per-engine table plus the speedup verdict line."""
    table = format_table(
        results["rows"],
        title=(
            f"sampler throughput — {results['dataset']} "
            f"(n={results['num_vertices']}, budget={results['budget']}, "
            f"m={results['frontier_size']})"
        ),
    )
    verdict = (
        f"fast vs reference speedup: {results['speedup']:.2f}x "
        f"(target >= {results['min_speedup']:.1f}x, "
        f"{'met' if results['meets_target'] else 'NOT met'})"
    )
    points = "\n".join(
        f"at the e2e operating point {label} ({p['dataset']}, m={p['frontier_size']}, "
        f"n={p['budget']}): fast {p['fast_median_ms']:.2f} ms, reference "
        f"{p['reference_median_ms']:.2f} ms, speedup {p['speedup']:.2f}x (no target)"
        for label, p in results["operating_points"].items()
    )
    return f"{table}\n\n{verdict}\n{points}"


def format_zoo_results(results: dict) -> str:
    """Render the per-family comparison table plus the verdict line."""
    table = format_table(
        results["rows"],
        title=(
            f"sampler zoo — {results['dataset']} "
            f"(n={results['num_vertices']}, budget={results['budget']})"
        ),
    )
    worst = min(results["speedups"].values())
    verdict = (
        f"per-family fast vs reference speedup: worst {worst:.2f}x "
        f"(target >= {results['min_speedup']:.1f}x for every family, "
        f"{'met' if results['meets_target'] else 'NOT met'})"
    )
    return f"{table}\n\n{verdict}"
