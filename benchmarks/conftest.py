"""Shared benchmark fixtures.

Experiment benchmarks run their workload once (``benchmark.pedantic`` with
a single round — these regenerate paper tables, they are not microbenches)
through the :func:`paper_bench` fixture, inside an enabled
``bench.<name>`` obs span. Its output goes through
:func:`repro.obs.record.write_bench`, the writer the CLI's ``--out`` uses
too, so a runner lands on the same files, bench name and series key
whichever entry point ran it:

* the paper-style table → ``benchmarks/results/<name>.txt`` + stdout;
* the results plus the :class:`~repro.obs.record.BenchRecord` of the
  series the runner states (environment fingerprint, seed, clock) →
  ``BENCH_<name>.json`` (the cross-PR benchmark trajectory that
  ``bench-record`` / ``bench-gate`` consume);
* the runner's trace document, or the obs summary of the run (per-phase
  span aggregates + counters) → ``OBS_<name>.json``.

The pure microbenches in ``bench_kernels.py`` get their stats (raw
rounds included) exported to ``BENCH_kernels.json`` by a session-finish
hook, through the same writer.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import obs
from repro.obs.record import MetricSeries, write_bench

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Every paper bench runs its workload at seed 0, and its record says so.
SEED = 0


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def run_paper_bench(benchmark, out: pathlib.Path, name: str, fn, *, text=None):
    """Run ``fn`` once under obs and write its files to ``out``; returns
    its results. The body of :func:`paper_bench`."""
    obs.reset()
    with obs.enabled(), obs.span(f"bench.{name}"):
        results = benchmark.pedantic(fn, rounds=1, iterations=1)
    rendered = None if text is None else text(results)
    if rendered is not None:
        print(f"\n{rendered}")
    for path in write_bench(out, name, results, seed=SEED, text=rendered):
        print(f"[written to {path}]")
    return results


@pytest.fixture
def paper_bench(benchmark, results_dir):
    """Run one paper-regeneration workload; write ``<name>.txt`` (when
    ``text`` renders a table), ``BENCH_<name>.json`` and
    ``OBS_<name>.json`` — the table, the results trajectory and the time
    breakdown all come from the same run."""

    def _run(name: str, fn, *, text=None):
        return run_paper_bench(benchmark, results_dir, name, fn, text=text)

    return _run


def pytest_sessionfinish(session, exitstatus):
    """Export pytest-benchmark microbench stats as BENCH_kernels.json.

    The kernel benches have no results dict of their own — their product
    *is* the timing — so the trajectory file is assembled from the
    benchmark session's stats after the run; the raw per-round samples
    go into the bench record so the gate has distributions to test.
    Every sample is wall seconds on this host, and the record says so
    (``env.clock = "wall"``); the microbenches take no seed.
    """
    policy_payload = getattr(session.config, "_kernel_policy_bench", None)
    bench_session = getattr(session.config, "_benchmarksession", None)
    rows = []
    series: dict[str, MetricSeries] = {}
    for bench in getattr(bench_session, "benchmarks", None) or []:
        if "bench_kernels" not in getattr(bench, "fullname", ""):
            continue  # table-style runners write their own BENCH_*.json
        stats = getattr(bench, "stats", None)
        if stats is None or getattr(bench, "has_error", False):
            continue
        try:
            rows.append(
                {
                    "name": bench.fullname,
                    "mean_s": stats.mean,
                    "stddev_s": stats.stddev,
                    "min_s": stats.min,
                    "rounds": stats.rounds,
                }
            )
            raw = [float(v) for v in getattr(stats, "data", [])]
            if raw:
                series[f"{bench.name}_s"] = MetricSeries(raw)
        except (AttributeError, TypeError):
            continue
    if rows or policy_payload:
        results = {"microbench": rows, "dtype_policy": policy_payload}
        write_bench(RESULTS_DIR, "kernels", {**results, "clock": "wall", "series": series}, seed=None)
