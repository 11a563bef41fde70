"""Shared benchmark fixtures.

Experiment benchmarks run their workload once (``benchmark.pedantic`` with
a single round — these regenerate paper tables, they are not microbenches)
through the :func:`paper_bench` fixture. All per-runner output flows
through one :class:`repro.obs.record.BenchReporter`, which owns the
naming convention for the three sibling artifacts of a run:

* the paper-style table → ``benchmarks/results/<name>.txt`` + stdout;
* the raw results dict plus the normalized
  :class:`~repro.obs.record.BenchRecord` (environment fingerprint + raw
  samples) → ``BENCH_<name>.json`` (the cross-PR benchmark trajectory
  that ``bench-record`` / ``bench-gate`` consume);
* the :mod:`repro.obs` trace of the same run → ``OBS_<name>.json``
  (per-phase span aggregates + counters — where the workload's time
  went, not just how long it took).

The pure microbenches in ``bench_kernels.py`` get their stats (raw
rounds included) exported to ``BENCH_kernels.json`` by a session-finish
hook, through the same writer.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import obs
from repro.obs.record import BenchRecord, BenchReporter, environment_fingerprint

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def reporter(results_dir) -> BenchReporter:
    """The one artifact writer every bench fixture goes through."""
    return BenchReporter(results_dir)


@pytest.fixture
def record_table(reporter):
    """Write a rendered experiment table to results/<name>.txt and stdout."""

    def _record(name: str, text: str) -> None:
        path = reporter.write_table(name, text)
        print(f"\n{text}\n[written to {path}]")

    return _record


@pytest.fixture
def record_json(reporter):
    """Write a runner's results + bench record to results/BENCH_<name>.json."""

    def _record(name: str, results) -> None:
        samples = _result_samples(results)
        record = None
        if samples:
            # Build the record explicitly so throughput-style series keep
            # their higher-is-better direction (the default samples= path
            # records everything as lower-is-better seconds).
            # A runner that names its clock gets it into the series key.
            clock = results.get("clock")
            record = BenchRecord.from_registry(
                name,
                env=environment_fingerprint(extra={"clock": clock} if clock else None),
            )
            for metric, values in samples.items():
                throughput = "throughput" in metric or "per_sec" in metric
                ratio = metric.startswith("speedup.")
                record.add_samples(
                    metric,
                    values,
                    unit="ratio" if ratio else "1/s" if throughput else "s",
                    direction="higher" if throughput or ratio else "lower",
                )
        path = reporter.write_results(name, results, record=record)
        print(f"[written to {path}]")

    return _record


def _result_samples(results) -> dict[str, list[float]] | None:
    """Raw sample series a runner already computed.

    Two runner conventions feed this: the serving bench's
    ``latency_samples`` (config → per-request latencies) and the generic
    ``samples`` dict (metric name → values) the sampler-throughput bench
    emits.
    """
    if not isinstance(results, dict):
        return None
    series: dict[str, list[float]] = {}
    latency = results.get("latency_samples")
    if isinstance(latency, dict):
        series.update(
            {f"latency_s.{config}": list(v) for config, v in latency.items()}
        )
    generic = results.get("samples")
    if isinstance(generic, dict):
        series.update({str(k): list(v) for k, v in generic.items()})
    return series or None


@pytest.fixture
def paper_bench(benchmark, record_table, record_json, reporter):
    """Run one paper-regeneration workload; emit table + BENCH + OBS json.

    Replaces the per-runner timing boilerplate: the workload executes
    once (``benchmark.pedantic``) inside an enabled ``bench.<name>`` obs
    span, then the fixture writes ``<name>.txt`` (when ``text`` renders a
    table), ``BENCH_<name>.json`` and ``OBS_<name>.json`` — so the
    human-readable table, the results trajectory (with its environment
    fingerprint and any raw samples the obs registry collected) and the
    time-breakdown trace all come from the same run.
    """

    def _run(name: str, fn, *, text=None):
        obs.reset()
        with obs.enabled(), obs.span(f"bench.{name}"):
            results = benchmark.pedantic(fn, rounds=1, iterations=1)
        if text is not None:
            record_table(name, text(results))
        record_json(name, results)
        path = reporter.write_obs(name)
        print(f"[written to {path}]")
        return results

    return _run


def pytest_sessionfinish(session, exitstatus):
    """Export pytest-benchmark microbench stats as BENCH_kernels.json.

    The kernel benches have no results dict of their own — their product
    *is* the timing — so the trajectory file is assembled from the
    benchmark session's stats after the run; the raw per-round samples
    go into the bench record so the gate has distributions to test.
    Every sample is wall seconds on this host, and the record says so
    (``env.clock = "wall"``), as the serving series do.
    """
    policy_payload = getattr(session.config, "_kernel_policy_bench", None)
    bench_session = getattr(session.config, "_benchmarksession", None)
    rows = []
    samples: dict[str, list[float]] = {}
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
                samples[f"{bench.name}_s"] = raw
        except (AttributeError, TypeError):
            continue
    if rows or policy_payload:
        BenchReporter(RESULTS_DIR).write_results(
            "kernels",
            {"microbench": rows, "dtype_policy": policy_payload},
            samples=samples or None,
            env=environment_fingerprint(extra={"clock": "wall"}),
        )
