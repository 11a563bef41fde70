"""Golden pin of the serve-cluster experiment's modeled phases.

Phases 2 (bursty hedging) and 3 (upsert soak) of
:func:`repro.experiments.serving.run_cluster` are priced by a
deterministic ``service_model``, so their virtual-clock latencies, hedge
counts, upserts, staleness and SLO rows are a pure function of the seed.
This test pins them bit for bit at a small size, so a refactor of the
experiment code has to leave them exactly where they were. Phase 1 is
timed on the wall clock and stays out of the pin.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments import serving

# sha256 of each series' float64 samples, in replay order.
SERIES_SHA256 = {
    "latency_s.bursty-nohedge": "7bb1126e3abbf4cb51f397fb6cacde0989c06347f439707b165ecc9bf2b958c3",
    "latency_s.bursty+hedge": "7b83cf2f3488da8a0d35b07a41a9d93abab559f051731a27e6d0fb4103bbaea0",
    "latency_s.upsert-soak": "01ce15ea8708bb4598a37c69adf9bb0fe5e3a10aede63e6ca807260700e97a56",
}

META = {
    "hedges": 88.0,
    "hedge_wins": 68.0,
    "upserts_applied": 12.0,
    "max_staleness_s": 0.08664927482318491,
    "p99_ms_nohedge": 21.205237834546974,
    "p99_ms_hedge": 11.544210025900192,
}

SLO_ROWS = [
    {
        "rule": "cluster-per-shard-p99",
        "kind": "per_shard_p99",
        "value": 0.0016138341667957723,
        "threshold": 0.05,
        "status": "ok",
        "detail": "worst of 4 shards: cluster.shard.2.latency_seconds",
    },
    {
        "rule": "cluster-staleness-bound",
        "kind": "staleness_bound",
        "value": 0.08664927482318491,
        "threshold": 0.44860146399260326,
        "status": "ok",
        "detail": "max slab age over 674 served sub-requests",
    },
]


@pytest.fixture(scope="module")
def results():
    return serving.run_cluster(
        num_queries=300, num_vertices=4000, soak_vertices=4000, seed=0
    )


def test_modeled_series_are_bit_identical(results):
    for name, digest in SERIES_SHA256.items():
        series = results["series"][name]
        assert (series.unit, series.direction) == ("s", "lower")
        samples = np.asarray(series.samples, dtype=np.float64)
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest, name


def test_modeled_meta_is_pinned(results):
    assert {k: results["meta"][k] for k in META} == META


def test_slo_rows_are_pinned(results):
    assert results["slo"] == SLO_ROWS


def test_series_names_are_the_five_replays(results):
    assert sorted(results["series"]) == sorted(
        ["latency_s.single", "latency_s.cluster", *SERIES_SHA256]
    )
