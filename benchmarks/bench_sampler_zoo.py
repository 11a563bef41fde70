"""Benchmark — sampler-zoo family comparison (fast vs reference, x4).

Real wall-clock microbenchmark of every sampler family in
:data:`repro.sampling.zoo.FAMILIES` — dashboard (the paper's frontier
sampler), rw, edge, and edge-indp (the follow-up paper's GraphSAINT
samplers) — at a shared vertex budget on the Reddit-profile workload.
The acceptance bar: every family's vectorized ``fast`` engine clears
``DEFAULT_ZOO_MIN_SPEEDUP`` (2x) over its scalar ``reference`` oracle,
asserted on the emitted payload so ``BENCH_sampler_zoo.json`` records
the per-family verdicts alongside the raw per-repeat wall-time series
the bench-gate tests run on.
"""

from __future__ import annotations

from repro.experiments import samplerbench
from repro.sampling.zoo import FAMILIES


def test_sampler_zoo(paper_bench):
    results = paper_bench(
        "sampler_zoo",
        lambda: samplerbench.run_zoo(repeats=12, seed=0),
        text=samplerbench.format_zoo_results,
    )

    by_family = {row["family"]: row for row in results["rows"]}
    assert set(by_family) == set(FAMILIES)
    for row in by_family.values():
        assert row["fast_median_ms"] > 0
        assert row["reference_median_ms"] > 0
        # Every family fills a comparable fraction of the shared budget
        # (they sample different distributions, but none collapses).
        assert row["unique_vertices"] > results["budget"] / 4

    # The headline claim, recorded in the payload for the history file:
    # every family's fast engine clears the 2x bar.
    for fam in FAMILIES:
        assert results["speedups"][fam] >= samplerbench.DEFAULT_ZOO_MIN_SPEEDUP
    assert results["meets_target"] is True

    # Wall seconds on this host: conftest.record_json puts the clock into
    # the series key.
    assert results["clock"] == "wall"
    samples = results["samples"]
    for fam in FAMILIES:
        assert len(samples[f"sample_wall_s.{fam}.fast"]) == results["repeats"]
        assert len(samples[f"sample_wall_s.{fam}.reference"]) == results["repeats"]
        assert len(samples[f"throughput.{fam}.fast"]) == results["repeats"]
