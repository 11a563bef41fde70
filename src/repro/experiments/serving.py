"""Experiment S1 — serving-path comparison (naive vs batched vs ANN).

Replays one Zipf-skewed query trace (skew mirroring the Amazon profile's
degree distribution) through four server configurations and reports the
paper-style table the ROADMAP's serving goal asks for: throughput,
latency percentiles, cache hit-rate, shed count and recall@k.

Configurations, cumulative:

* ``naive``              — one brute-force scan per request, no queueing
  amortization (the pre-PR ``cosine_nearest_neighbors`` serving story);
* ``batched``            — micro-batched brute force (one GEMM per batch);
* ``batched+cache``      — plus the LRU result cache;
* ``batched+cache+ann``  — plus the cluster-pruned index with deadline
  degradation.

The trace's offered rate is calibrated to a multiple of the measured
naive capacity so every configuration runs saturated: throughput then
measures service capacity, and the shed counter shows what overload
costs. Service times are measured around the real kernels; queue
dynamics run on the virtual replay clock.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..obs.export import trace_document
from ..obs.record import MetricSeries
from ..obs.slo import SLOContext, cluster_rules, evaluate
from ..serving.cluster import ClusterConfig, ClusterServer
from ..serving.index import BruteForceIndex, recall_at_k
from ..serving.server import EmbeddingServer, ServerConfig
from ..serving.upsert import SlabUpsertProducer
from ..serving.workload import bursty_trace, zipf_trace
from .common import format_table

__all__ = [
    "mixture_embeddings",
    "run",
    "format_results",
    "CONFIG_NAMES",
    "run_cluster",
    "format_cluster_results",
    "straggler_model",
    "CLUSTER_PHASES",
]

CONFIG_NAMES = ("naive", "batched", "batched+cache", "batched+cache+ann")

CLUSTER_PHASES = ("zipf-throughput", "bursty-hedging", "upsert-soak")


def mixture_embeddings(
    num_vertices: int,
    dim: int,
    *,
    num_components: int = 64,
    spread: float = 0.2,
    seed: int = 0,
) -> np.ndarray:
    """Gaussian-mixture embedding matrix standing in for a trained model.

    Trained graph embeddings are clustered by construction (label
    homogeneity is the quality metric in :mod:`repro.train.embedding`);
    a mixture with per-component spread reproduces that geometry without
    paying for a training run. For the real pipeline end-to-end, see
    ``examples/serving_demo.py``.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_components, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    which = rng.integers(0, num_components, size=num_vertices)
    return centers[which] + spread * rng.standard_normal((num_vertices, dim))


def _report(rows: list[dict], series: dict, key: str, replay, **labels) -> None:
    """Record one replay — single server or cluster, the loop leaves the
    same shape behind: its raw latencies as the ``latency_s.<key>`` series
    (seconds on the replay's virtual clock; what bench-record appends to
    the history store and bench-gate tests against) and one flat report
    row."""
    series[f"latency_s.{key}"] = MetricSeries(
        [float(v) for v in replay.metrics.latency.samples]
    )
    stats = replay.stats
    rows.append(
        {
            **labels,
            **replay.metrics.as_dict(),
            "mean_fanout": stats["mean_fanout"],
            "hedges": stats["hedges"],
            "hedge_wins": stats["hedge_wins"],
            "upserts": stats["upserts_applied"],
            "max_staleness_ms": stats["max_staleness_s"] * 1e3,
        }
    )


def _calibrate_naive_qps(embeddings: np.ndarray, k: int, samples: int = 64) -> float:
    """Measured single-request brute-force rate (requests/second)."""
    index = BruteForceIndex(embeddings)
    rng = np.random.default_rng(0)
    qids = rng.integers(0, embeddings.shape[0], size=samples)
    index.search_ids(qids[:4], k)  # warm the kernels
    t0 = time.perf_counter()
    for q in qids:
        index.search_ids(np.array([q]), k)
    elapsed = time.perf_counter() - t0
    return samples / max(elapsed, 1e-9)


def run(
    *,
    num_queries: int = 3000,
    num_vertices: int = 12000,
    dim: int = 64,
    num_clusters: int = 64,
    probes: int = 8,
    skew: float = 1.1,
    k: int = 10,
    max_batch: int = 64,
    queue_capacity: int = 128,
    cache_capacity: int = 2048,
    load_factor: float = 20.0,
    seed: int = 0,
) -> dict:
    """Run the four-configuration serving comparison; return plain rows."""
    emb = mixture_embeddings(
        num_vertices, dim, num_components=num_clusters, seed=seed
    )
    naive_qps = _calibrate_naive_qps(emb, k)
    rate = load_factor * naive_qps
    trace = zipf_trace(
        num_queries,
        num_vertices,
        skew=skew,
        rate=rate,
        k=k,
        rng=np.random.default_rng(seed + 1),
    )
    # Exact answers for every request in the trace, for recall scoring.
    exact_idx, _ = BruteForceIndex(emb).search_ids(trace.query_ids, k)

    batch_wait = 2.0 * max_batch / rate
    deadline = 8.0 * max_batch / naive_qps
    configs: list[tuple[str, ServerConfig, str, dict]] = [
        (
            "naive",
            ServerConfig(max_batch=1, queue_capacity=queue_capacity),
            "brute",
            {},
        ),
        (
            "batched",
            ServerConfig(
                max_batch=max_batch,
                max_wait=batch_wait,
                queue_capacity=queue_capacity,
            ),
            "brute",
            {},
        ),
        (
            "batched+cache",
            ServerConfig(
                max_batch=max_batch,
                max_wait=batch_wait,
                queue_capacity=queue_capacity,
                cache_capacity=cache_capacity,
            ),
            "brute",
            {},
        ),
        (
            "batched+cache+ann",
            ServerConfig(
                max_batch=max_batch,
                max_wait=batch_wait,
                queue_capacity=queue_capacity,
                cache_capacity=cache_capacity,
                deadline=deadline,
                min_probes=max(2, probes // 4),
            ),
            "cluster",
            {
                "num_clusters": num_clusters,
                "probes": probes,
                "rng": np.random.default_rng(seed + 2),
            },
        ),
    ]
    rows: list[dict] = []
    series: dict[str, MetricSeries] = {}
    for name, cfg, kind, kwargs in configs:
        server = EmbeddingServer(
            emb, config=cfg, index=kind, index_kwargs=kwargs
        )
        replay = server.serve_trace(trace, collect_results=True)
        served_seqs = sorted(replay.results)
        replay.metrics.recall_at_k = recall_at_k(
            np.array([replay.results[s] for s in served_seqs]),
            exact_idx[served_seqs],
        )
        _report(rows, series, name, replay, config=name)
    base = rows[0]["throughput_qps"]
    for row in rows:
        row["speedup_vs_naive"] = row["throughput_qps"] / base if base else 0.0
    return {
        "rows": rows,
        "clock": "virtual",
        "series": series,
        "meta": {
            "num_vertices": num_vertices,
            "dim": dim,
            "num_queries": num_queries,
            "num_clusters": num_clusters,
            "probes": probes,
            "zipf_skew": skew,
            "k": k,
            "naive_qps_calibrated": naive_qps,
            "offered_rate_qps": rate,
            "load_factor": load_factor,
            "seed": seed,
        },
    }


_COLUMNS = [
    "config",
    "served",
    "shed",
    "throughput_qps",
    "speedup_vs_naive",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "hit_rate",
    "recall_at_k",
    "degraded_batches",
]


def format_results(results: dict) -> str:
    """Render the comparison as the paper-style fixed-width table."""
    meta = results["meta"]
    title = (
        "S1: embedding serving under a Zipf(%.2f) trace — "
        "n=%d, d=%d, k=%d, offered %.0f qps (%.0fx naive capacity)"
        % (
            meta["zipf_skew"],
            meta["num_vertices"],
            meta["dim"],
            meta["k"],
            meta["offered_rate_qps"],
            meta["load_factor"],
        )
    )
    return format_table(results["rows"], columns=_COLUMNS, title=title)


# ----------------------------------------------------------------------
# Experiment S2 — the sharded, replicated cluster (serve-cluster).

def _calibrate_batched_qps(
    embeddings: np.ndarray, k: int, batch: int, dtype=np.float32
) -> float:
    """Measured batched brute-force rate (queries/second) at ``batch``.

    The first full-batch scan pays one-off allocation/cache-warming
    costs an order of magnitude above steady state, so it is discarded
    and the median of three warm runs is used.
    """
    index = BruteForceIndex(embeddings, dtype=dtype)
    rng = np.random.default_rng(0)
    qids = rng.integers(0, embeddings.shape[0], size=batch)
    index.search_ids(qids, k)  # warm the full-batch path
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        index.search_ids(qids, k)
        times.append(time.perf_counter() - t0)
    return batch / max(float(np.median(times)), 1e-9)


def straggler_model(replicas: int, *, slow_factor: float = 12.0):
    """Deterministic service model with one slow replica per shard.

    The last replica of every shard pays ``slow_factor``x the nominal
    row-scan cost — the tail-at-scale scenario hedged requests exist
    for. Deterministic, so the hedged-vs-unhedged p99 comparison is
    exactly reproducible.
    """

    def model(shard: int, replica: int, batch: int, rows: int) -> float:
        base = 8e-4 + 2e-8 * rows
        return base * (slow_factor if replica == replicas - 1 else 1.0)

    return model


def run_cluster(
    *,
    num_queries: int = 2000,
    num_vertices: int = 1_000_000,
    dim: int = 32,
    num_shards: int = 4,
    replicas: int = 2,
    fanout: int = 2,
    skew: float = 1.1,
    k: int = 10,
    max_batch: int = 64,
    queue_capacity: int = 512,
    cache_capacity: int = 4096,
    load_factor: float = 8.0,
    soak_vertices: int = 50_000,
    seed: int = 0,
) -> dict:
    """Run the three-phase cluster experiment; return plain rows.

    Phases (see :data:`CLUSTER_PHASES`):

    1. **zipf-throughput** — the million-vertex Zipf trace through the
       single batched brute-force server and through the sharded
       cluster, with *measured* service times. The baseline's exact
       results double as the recall oracle for the cluster's pruned
       (fanout < shards) answers.
    2. **bursty-hedging** — a bursty trace against a deterministic
       straggler service model (one slow replica per shard), hedging
       off vs on: hedged requests must lower p99.
    3. **upsert-soak** — a steady trace with the streaming slab
       producer refreshing every shard mid-flight, run under the obs
       layer; the ``cluster_rules`` SLOs (worst per-shard p99,
       staleness bound) are evaluated against the live registry.
    """
    rows: list[dict] = []
    series: dict[str, MetricSeries] = {}
    dtype = np.float32

    # ---- phase 1: million-vertex Zipf throughput + recall -----------
    emb = mixture_embeddings(
        num_vertices, dim, num_components=max(64, 16 * num_shards), seed=seed
    )
    single_qps = _calibrate_batched_qps(emb, k, max_batch, dtype=dtype)
    rate = load_factor * single_qps
    trace = zipf_trace(
        num_queries,
        num_vertices,
        skew=skew,
        rate=rate,
        k=k,
        rng=np.random.default_rng(seed + 1),
    )
    batch_wait = 2.0 * max_batch / rate
    single = EmbeddingServer(
        emb,
        config=ServerConfig(
            max_batch=max_batch,
            max_wait=batch_wait,
            queue_capacity=queue_capacity,
            cache_capacity=cache_capacity,
        ),
        index="brute",
        index_kwargs={"dtype": dtype},
    )
    base_replay = single.serve_trace(trace, collect_results=True)
    _report(
        rows, series, "single", base_replay,
        phase=CLUSTER_PHASES[0], config="single-batched",
    )

    cluster = ClusterServer(
        emb,
        config=ClusterConfig(
            num_shards=num_shards,
            replicas=replicas,
            fanout=fanout,
            max_batch=max_batch,
            max_wait=batch_wait,
            queue_capacity=queue_capacity,
            cache_capacity=cache_capacity,
        ),
        rng=np.random.default_rng(seed + 2),
        dtype=dtype,
    )
    cluster_replay = cluster.serve_trace(trace, collect_results=True)
    # Recall oracle: the single brute-force server is exact, so score
    # the cluster's pruned answers against the requests both served.
    common = sorted(set(base_replay.results) & set(cluster_replay.results))
    recall = float("nan")
    if common:
        recall = recall_at_k(
            np.array([cluster_replay.results[s] for s in common]),
            np.array([base_replay.results[s] for s in common]),
        )
    cluster_replay.metrics.recall_at_k = recall
    single_tp = base_replay.metrics.throughput
    speedup = (
        cluster_replay.metrics.throughput / single_tp if single_tp else 0.0
    )
    _report(
        rows, series, "cluster", cluster_replay,
        phase=CLUSTER_PHASES[0], config=f"cluster-{num_shards}x{replicas}",
        speedup_vs_single=speedup,
    )

    # ---- phase 2: bursty trace, hedging off vs on -------------------
    emb2 = mixture_embeddings(
        soak_vertices, dim, num_components=max(64, 16 * num_shards), seed=seed + 10
    )
    btrace = bursty_trace(
        max(600, num_queries * 3 // 4),
        soak_vertices,
        skew=skew,
        base_rate=800.0,
        burst_rate=8000.0,
        base_seconds=0.5,
        burst_seconds=0.15,
        k=k,
        rng=np.random.default_rng(seed + 3),
    )
    straggler = straggler_model(replicas)
    assignment = None
    hedge_results = {}
    for hedged in (False, True):
        cfg = ClusterConfig(
            num_shards=num_shards,
            replicas=replicas,
            fanout=fanout,
            max_batch=max_batch,
            queue_capacity=queue_capacity,
            hedge=hedged,
            hedge_percentile=95.0,
            hedge_min_samples=64,
            hedge_fallback=0.02,
        )
        server = ClusterServer(
            emb2,
            config=cfg,
            assignment=assignment,
            service_model=straggler,
            rng=np.random.default_rng(seed + 4),
            dtype=dtype,
        )
        if assignment is None:  # reuse the partition across both runs
            assignment = server.sharded.assignment
        if hedged:
            # The hedged replay runs under obs so its request span
            # forest (hedged duplicates, winner marked) and the tail
            # exemplars that point into it are captured into the
            # trace document written as OBS_serve_cluster.json — every
            # p99 exemplar must resolve to a full span tree there.
            with obs.enabled():
                obs.reset()
                replay = server.serve_trace(btrace)
                trace_doc = trace_document("serve_cluster_hedged")
        else:
            replay = server.serve_trace(btrace)
        name = "bursty+hedge" if hedged else "bursty-nohedge"
        hedge_results[hedged] = replay
        _report(
            rows, series, name, replay,
            phase=CLUSTER_PHASES[1], config=name,
        )
    p99_nohedge = hedge_results[False].metrics.latency.percentile(99.0)
    p99_hedge = hedge_results[True].metrics.latency.percentile(99.0)

    # ---- phase 3: streaming upserts under the obs SLOs --------------
    strace = zipf_trace(
        max(600, num_queries // 2),
        soak_vertices,
        skew=skew,
        rate=3000.0,
        k=k,
        rng=np.random.default_rng(seed + 5),
    )
    span_est = strace.arrivals[-1] - strace.arrivals[0]
    upsert_rounds = 3
    interval = 0.8 * span_est / (upsert_rounds * num_shards)
    soak_model = straggler_model(replicas, slow_factor=1.0)
    with obs.enabled():
        obs.reset()
        soak = ClusterServer(
            emb2,
            config=ClusterConfig(
                num_shards=num_shards,
                replicas=replicas,
                fanout=fanout,
                max_batch=max_batch,
                queue_capacity=queue_capacity,
                cache_capacity=cache_capacity,
            ),
            assignment=assignment,
            service_model=soak_model,
            rng=np.random.default_rng(seed + 6),
            dtype=dtype,
        )
        soak.upserts = SlabUpsertProducer(
            emb2,
            soak.sharded.assignment,
            start=float(strace.arrivals[0]),
            interval=float(interval),
            rounds=upsert_rounds,
            seed=seed + 7,
        )
        soak_replay = soak.serve_trace(strace)
        staleness_bound = 4.0 * num_shards * interval + 0.25
        slo_results = evaluate(
            cluster_rules(
                per_shard_p99=0.050, staleness_bound=float(staleness_bound)
            ),
            SLOContext(),
        )
    _report(
        rows, series, "upsert-soak", soak_replay,
        phase=CLUSTER_PHASES[2], config="upsert-soak",
    )
    slo_rows = [r.as_row() for r in slo_results]

    return {
        "rows": rows,
        "clock": "virtual",
        "series": series,
        "slo": slo_rows,
        # Request span forest + tail exemplars of the hedged replay
        # (the bench's OBS_serve_cluster.json).
        "trace": trace_doc,
        "meta": {
            "num_vertices": num_vertices,
            "soak_vertices": soak_vertices,
            "dim": dim,
            "num_queries": num_queries,
            "num_shards": num_shards,
            "replicas": replicas,
            "fanout": fanout,
            "zipf_skew": skew,
            "k": k,
            "single_qps_calibrated": single_qps,
            "offered_rate_qps": rate,
            "load_factor": load_factor,
            "seed": seed,
            # Acceptance-criteria summary (what the bench asserts on).
            "speedup_vs_single": speedup,
            "recall_at_k_cluster": recall,
            "p99_ms_nohedge": p99_nohedge * 1e3,
            "p99_ms_hedge": p99_hedge * 1e3,
            "hedges": hedge_results[True].stats["hedges"],
            "hedge_wins": hedge_results[True].stats["hedge_wins"],
            "upserts_applied": soak_replay.stats["upserts_applied"],
            "max_staleness_s": soak_replay.stats["max_staleness_s"],
            "staleness_bound_s": float(staleness_bound),
            "slo_ok": all(r["status"] == "ok" for r in slo_rows),
        },
    }


_CLUSTER_COLUMNS = [
    "phase",
    "config",
    "served",
    "shed",
    "throughput_qps",
    "speedup_vs_single",
    "p50_ms",
    "p99_ms",
    "hit_rate",
    "recall_at_k",
    "mean_fanout",
    "hedges",
    "hedge_wins",
    "upserts",
    "max_staleness_ms",
]

_SLO_COLUMNS = ["rule", "kind", "value", "threshold", "status", "detail"]


def format_cluster_results(results: dict) -> str:
    """Render the cluster experiment: phase table plus the SLO report."""
    meta = results["meta"]
    title = (
        "S2: sharded cluster serving — n=%d, d=%d, %d shards x %d replicas, "
        "fanout %d, offered %.0f qps (%.0fx single capacity)"
        % (
            meta["num_vertices"],
            meta["dim"],
            meta["num_shards"],
            meta["replicas"],
            meta["fanout"],
            meta["offered_rate_qps"],
            meta["load_factor"],
        )
    )
    table = format_table(results["rows"], columns=_CLUSTER_COLUMNS, title=title)
    slo = format_table(
        results["slo"], columns=_SLO_COLUMNS, title="cluster SLOs"
    )
    return table + "\n\n" + slo
