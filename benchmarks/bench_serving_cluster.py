"""Benchmark S2 — sharded, replicated cluster serving (the PR-6 tentpole).

Runs the three-phase cluster experiment at paper scale — the
million-vertex Zipf trace, the bursty hedging comparison against a
deterministic straggler replica, and the streaming-upsert soak under
the cluster SLO rules — and records the table plus the
BENCH_serve_cluster.json trajectory file.

Shapes to hold: 4 shards x 2 replicas sustain >= 2x the batched
single-server throughput at recall@10 >= 0.9 (centroid routing at
fanout 2 of 4); hedged requests lower p99 on the bursty trace; the
streaming upserts land on every shard while queries are in flight and
keep both cluster SLOs (worst per-shard p99, staleness bound) green.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro import obs
from repro.experiments import serving
from repro.kernels import accounting
from repro.obs.record import MetricSeries, write_bench
from repro.serving.cluster import ClusterConfig, ClusterServer, ShardedIndex, partition_vertices
from repro.serving.index import build_index, l2_normalize_rows
from repro.serving.upsert import SlabUpsertProducer, drift_refresh
from repro.serving.workload import zipf_trace


def test_cluster_serving(paper_bench):
    results = paper_bench(
        "serve_cluster",
        lambda: serving.run_cluster(
            num_queries=2000, num_vertices=1_000_000, seed=0
        ),
        text=serving.format_cluster_results,
    )

    meta = results["meta"]
    rows = {(r["phase"], r["config"]): r for r in results["rows"]}
    assert set(r["phase"] for r in results["rows"]) == set(
        serving.CLUSTER_PHASES
    )

    # Acceptance bar 1: the 4x2 cluster sustains >= 2x the batched
    # single server's throughput on the million-vertex Zipf trace while
    # fanout-2 centroid routing keeps recall@10 >= 0.9 against the
    # single server's exact answers.
    assert meta["num_shards"] >= 4 and meta["replicas"] >= 2
    assert meta["speedup_vs_single"] >= 2.0
    assert meta["recall_at_k_cluster"] >= 0.9

    # Acceptance bar 2: hedged requests measurably lower p99 against
    # the deterministic straggler replica on the bursty trace.
    assert meta["p99_ms_hedge"] < meta["p99_ms_nohedge"]
    assert meta["hedges"] > 0 and meta["hedge_wins"] > 0

    # Acceptance bar 3: streaming upserts refreshed every shard while
    # queries were in flight, and both cluster SLOs stayed green.
    assert meta["upserts_applied"] == 3 * meta["num_shards"]
    assert meta["max_staleness_s"] <= meta["staleness_bound_s"]
    assert meta["slo_ok"], results["slo"]
    assert {r["rule"] for r in results["slo"]} == {
        "cluster-per-shard-p99",
        "cluster-staleness-bound",
    }

    # Request conservation and sane latency ordering in every phase.
    for r in results["rows"]:
        assert r["served"] + r["shed"] > 0
        assert r["p50_ms"] <= r["p95_ms"] <= r["p99_ms"]
    cluster_row = rows[("zipf-throughput", f"cluster-{meta['num_shards']}x{meta['replicas']}")]
    assert cluster_row["mean_fanout"] <= meta["fanout"]


# One serve_mixed-sized shard: 7 168 vertices x 256 over 4 shards, 128
# cells over 4 shards.
REFRESH_ROWS, REFRESH_DIM, REFRESH_CELLS = 1792, 256, 32
REFRESH_ROUNDS, REFRESH_SHARDS = 3, 4  # drift rounds per shard; shards timed
# serve_mixed's whole corpus in one index, as its single server builds it.
FULL_ROWS, FULL_CELLS, FULL_BUILDS = 7168, 128, 4


def _embedding_like(rng, rows: int) -> np.ndarray:
    """Low-rank plus noise, no discrete clusters: like trained
    embeddings, a cold build is still moving rows at iteration 12."""
    corpus = rng.standard_normal((rows, 24)) @ rng.standard_normal((24, REFRESH_DIM))
    return corpus + 0.3 * rng.standard_normal(corpus.shape)


def _shard_refresh_samples() -> dict:
    """Wall seconds of the upsert path (``ShardedIndex.replace_shard``)
    and of a cold ``build_index`` over the same slab, slab by slab; and
    of a cold build of a whole ``serve_mixed``-sized corpus (its Lloyd
    assignment products are the ones wide enough to run as row halves
    on two threads, ``kernels.ops.gemm``)."""
    refresh = drift_refresh(0.01)
    kwargs = dict(num_clusters=REFRESH_CELLS, probes=4)
    refreshed_s, cold_s, lloyd = [], [], []
    for seed in range(REFRESH_SHARDS):
        rng = np.random.default_rng(seed)
        rows = _embedding_like(rng, REFRESH_ROWS)
        ids = np.arange(REFRESH_ROWS)
        shard = ShardedIndex(
            rows, np.zeros(REFRESH_ROWS, dtype=np.int64), index="cluster", index_kwargs=kwargs
        )
        for rnd in range(REFRESH_ROUNDS):
            rows = refresh(0, rnd, rows, rng)
            t0 = perf_counter()
            shard.replace_shard(0, ids, rows)
            t1 = perf_counter()
            build_index(rows, "cluster", rng=np.random.default_rng(7_000), **kwargs)
            t2 = perf_counter()
            refreshed_s.append(t1 - t0)
            cold_s.append(t2 - t1)
            lloyd.append(shard.indexes[0].lloyd_iterations)
    full_s = []
    for seed in range(FULL_BUILDS):
        rows = _embedding_like(np.random.default_rng(100 + seed), FULL_ROWS)
        t0 = perf_counter()
        build_index(rows, "cluster", num_clusters=FULL_CELLS, rng=np.random.default_rng(7_000))
        full_s.append(perf_counter() - t0)
    return {
        "clock": "wall",
        "key_fields": {"shard": f"{REFRESH_ROWS}x{REFRESH_DIM}", "cells": REFRESH_CELLS},
        "series": {
            "serving.shard_refresh_seconds": MetricSeries(refreshed_s),
            "serving.shard_cold_build_seconds": MetricSeries(cold_s),
            "serving.cold_build_seconds": MetricSeries(full_s),
        },
        "lloyd_iterations": lloyd,
        "meta": {
            "rows": REFRESH_ROWS, "dim": REFRESH_DIM, "cells": REFRESH_CELLS,
            "refresh_ms_median": 1e3 * float(np.median(refreshed_s)),
            "cold_ms_median": 1e3 * float(np.median(cold_s)),
            "full_rows": FULL_ROWS, "full_cells": FULL_CELLS,
            "full_cold_ms_median": 1e3 * float(np.median(full_s)),
        },
    }


def _write(results_dir, name: str, results: dict) -> None:
    """The wall-clock series benches' files. They run with obs off (spans
    would land inside the timed calls), so their OBS file is an empty
    summary, not what an earlier bench of the session left behind."""
    obs.reset()
    paths = write_bench(results_dir, name, results, seed=0)
    print(f"\n{results['meta']}\n" + "\n".join(f"[written to {p}]" for p in paths))


def test_shard_refresh(benchmark, results_dir):
    """What one upsert slab costs, on the wall clock (its own history
    series, ``serve_refresh``: the ``serve_cluster`` series above is on
    the replay's virtual clock and the two are never pooled)."""
    results = benchmark.pedantic(_shard_refresh_samples, rounds=1, iterations=1)
    _write(results_dir, "serve_refresh", results)
    assert len(results["series"]["serving.shard_refresh_seconds"].samples) == (
        REFRESH_ROUNDS * REFRESH_SHARDS
    )
    assert len(results["series"]["serving.cold_build_seconds"].samples) == FULL_BUILDS
    # A 1% drift is refreshed, not rebuilt: it must not cost a cold build.
    assert results["meta"]["refresh_ms_median"] < results["meta"]["cold_ms_median"]


# rows / cells / probes: a ppi_small shard (every cell probed), a
# serve_mixed shard, the serve_mixed single server. Phase a batches ~60
# queries a call, phases b and c 1.2-1.5.
SEARCH_SHAPES = ((295, 4, 4), (1792, 32, 8), (7168, 128, 16))
SEARCH_BATCHES = (1, 2, 64)
SEARCH_ROUNDS, SEARCH_WARMUP = 60, 5


def _small_batch_search_samples() -> dict:
    """Per-call wall seconds of ``ClusterIndex.search`` as a shard serves
    it (unit rows in, top-11 out), and beside each call its glue ratio:
    (call - the call's GEMM seconds) / the call's GEMM seconds, both read
    in the same call, so the ratio means the same on any host. The nine
    configurations take turns, one call each per round: a slow spell of
    the host lands on all of them."""
    rng = np.random.default_rng(0)
    configs = []
    for rows, cells, probes in SEARCH_SHAPES:
        corpus = _embedding_like(rng, rows)
        index = build_index(
            corpus, "cluster", num_clusters=cells, probes=probes,
            rng=np.random.default_rng(7_000),
        )
        unit = l2_normalize_rows(corpus)
        for batch in SEARCH_BATCHES:
            configs.append((f"{rows}x{cells}x{probes}.q{batch}", index, unit, batch))
    seconds = {name: [] for name, *_ in configs}
    glue = {name: [] for name, *_ in configs}
    for rnd in range(SEARCH_WARMUP + SEARCH_ROUNDS):
        for name, index, unit, batch in configs:
            queries = unit[rng.integers(0, unit.shape[0], size=batch)]
            gemm0 = accounting.TOTALS.gemm_seconds
            t0 = perf_counter()
            index.search(queries, 11, normalized=True)
            call = perf_counter() - t0
            gemm = accounting.TOTALS.gemm_seconds - gemm0
            if rnd >= SEARCH_WARMUP:
                seconds[name].append(call)
                glue[name].append((call - gemm) / gemm)
    return {
        "clock": "wall",
        "key_fields": {"dim": REFRESH_DIM},
        "series": {
            **{
                f"serving.search_seconds.{name}": MetricSeries(v)
                for name, v in seconds.items()
            },
            **{
                f"serving.search_glue_ratio.{name}": MetricSeries(v, unit="ratio")
                for name, v in glue.items()
            },
        },
        "meta": {
            "dim": REFRESH_DIM,
            "search_us_median": {n: 1e6 * float(np.median(v)) for n, v in seconds.items()},
            "glue_ratio_median": {n: float(np.median(v)) for n, v in glue.items()},
        },
    }


def test_small_batch_search(benchmark, results_dir):
    """What one ``search`` call costs at the batch sizes the replays
    issue, on the wall clock (its own history series, ``serve_search``,
    never pooled with the virtual-clock ``serve_cluster`` series)."""
    results = benchmark.pedantic(_small_batch_search_samples, rounds=1, iterations=1)
    _write(results_dir, "serve_search", results)
    assert all(len(v.samples) == SEARCH_ROUNDS for v in results["series"].values())
    # A batch amortizes the per-call glue: a call of 64 queries spends a
    # smaller part of itself outside its GEMMs than a call of one.
    glue = results["meta"]["glue_ratio_median"]
    for rows, cells, probes in SEARCH_SHAPES:
        shape = f"{rows}x{cells}x{probes}"
        assert glue[f"{shape}.q64"] < glue[f"{shape}.q1"]


# The reddit_wide phase-c replay: a 1 864 x 1 024 corpus (hidden 512,
# concatenated), 4 shards x 2 replicas at fanout 2, 8 cells / 4 probes a
# shard, 800 Zipf requests at 1 000 qps, 3 drift rounds over the middle
# 80% of the trace.
REPLAY_ROWS, REPLAY_DIM, REPLAY_SHARDS, REPLAY_CELLS = 1864, 1024, 4, 8
REPLAY_REQUESTS, REPLAY_QPS, REPLAY_ROUNDS = 800, 1000.0, 3
REPLAY_SAMPLES = 10


def _replay_beside_writes_samples() -> dict:
    """Wall seconds of one measured-mode ``ClusterServer.serve_trace``
    while drift slabs stream into every shard — the slab producer's work
    included, wherever it runs. A fresh server and trace per sample; the
    server is built outside the timed call."""
    rng = np.random.default_rng(0)
    corpus = rng.standard_normal((REPLAY_ROWS, 24)) @ rng.standard_normal((24, REPLAY_DIM))
    corpus = corpus + 0.3 * rng.standard_normal(corpus.shape)
    assignment = partition_vertices(
        corpus, num_shards=REPLAY_SHARDS, rng=np.random.default_rng(0)
    )
    config = ClusterConfig(
        num_shards=REPLAY_SHARDS, replicas=2, fanout=2, max_batch=64, max_wait=2e-3,
        queue_capacity=256, cache_capacity=64, shard_index="cluster",
    )
    seconds, applied = [], []
    for i in range(REPLAY_SAMPLES):
        trace = zipf_trace(
            REPLAY_REQUESTS, REPLAY_ROWS, skew=1.1, rate=REPLAY_QPS, k=10,
            rng=np.random.default_rng([0, i]),
        )
        duration = float(trace.arrivals[-1])
        slabs = REPLAY_ROUNDS * REPLAY_SHARDS
        server = ClusterServer(
            corpus, config=config, assignment=assignment,
            index_kwargs=dict(num_clusters=REPLAY_CELLS, probes=4),
            upserts=SlabUpsertProducer(
                corpus, assignment, start=0.1 * duration, interval=0.8 * duration / slabs,
                rounds=REPLAY_ROUNDS, seed=i, refresh_fn=drift_refresh(0.01),
            ),
        )
        t0 = perf_counter()
        replay = server.serve_trace(trace)
        seconds.append(perf_counter() - t0)
        applied.append(replay.stats["upserts_applied"])
    return {
        "clock": "wall",
        "key_fields": {"corpus": f"{REPLAY_ROWS}x{REPLAY_DIM}", "cells": REPLAY_CELLS},
        "series": {"serving.cluster_replay_seconds": MetricSeries(seconds)},
        "upserts_applied": applied,
        "meta": {
            "rows": REPLAY_ROWS, "dim": REPLAY_DIM, "requests": REPLAY_REQUESTS,
            "replay_ms_median": 1e3 * float(np.median(seconds)),
        },
    }


def test_replay_beside_writes(benchmark, results_dir):
    """What a cluster replay with streaming upserts costs on the wall
    clock (its own history series, ``serve_replay``: ``serve_cluster`` is
    on the virtual clock, and ``serve_refresh`` times the shard swap
    alone, so neither sees where the slab itself is made)."""
    results = benchmark.pedantic(_replay_beside_writes_samples, rounds=1, iterations=1)
    _write(results_dir, "serve_replay", results)
    assert len(results["series"]["serving.cluster_replay_seconds"].samples) >= 8
    assert results["upserts_applied"] == [REPLAY_ROUNDS * REPLAY_SHARDS] * REPLAY_SAMPLES
