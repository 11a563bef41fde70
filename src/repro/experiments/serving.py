"""Experiments S1 and S2 — serving the embeddings under load.

Both replay query traces through the serving event loop and report
paper-style tables: throughput, latency percentiles, cache hit-rate,
shed count and recall@k.

* **S1** (:func:`run`, ``serve-bench``) replays one Zipf-skewed trace
  (skew mirroring the Amazon profile's degree distribution) through four
  cumulative single-server configurations: ``naive`` (one brute-force
  scan per request, no queueing amortization), ``batched`` (one GEMM per
  micro-batch), ``batched+cache`` (plus the LRU result cache) and
  ``batched+cache+ann`` (plus the cluster-pruned index with deadline
  degradation). The offered rate is a multiple of the measured naive
  capacity, so every configuration runs saturated: throughput measures
  service capacity and the shed counter shows what overload costs.
* **S2** (:func:`run_cluster`, ``serve-cluster``) runs the sharded,
  replicated cluster in three phases (:data:`CLUSTER_PHASES`): Zipf
  throughput and recall against the single batched server, the bursty
  hedging scenario (:func:`hedging_scenario`, also what the CLI's
  ``flight-dump`` / ``slo-report`` replay), and a streaming-upsert soak
  under the cluster SLOs.

Every replay goes through one helper, :func:`_replay`: it serves the
trace, scores recall against an exact top-k oracle when given one, and
records the ``latency_s.<key>`` series and the report row. Each
experiment derives its configurations from one base config, and the
brute-force servers of a corpus share one prebuilt index. Phase 1 of S2
and all of S1 measure service times around the real kernels; S2's
phases 2 and 3 price them with a deterministic service model. Queue
dynamics always run on the virtual replay clock.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .. import obs
from ..obs.export import trace_document
from ..obs.record import MetricSeries
from ..obs.slo import SLOContext, cluster_rules, evaluate
from ..serving.cluster import ClusterConfig, ClusterServer, partition_vertices
from ..serving.index import BruteForceIndex, build_index, recall_at_k
from ..serving.server import EmbeddingServer, ServerConfig
from ..serving.upsert import SlabUpsertProducer
from ..serving.workload import QueryTrace, bursty_trace, zipf_trace
from .common import format_table

__all__ = [
    "mixture_embeddings",
    "run",
    "format_results",
    "CONFIG_NAMES",
    "run_cluster",
    "format_cluster_results",
    "straggler_model",
    "hedging_scenario",
    "CLUSTER_PHASES",
]

CONFIG_NAMES = ("naive", "batched", "batched+cache", "batched+cache+ann")

CLUSTER_PHASES = ("zipf-throughput", "bursty-hedging", "upsert-soak")

#: Index dtype of every S2 server.
_CLUSTER_DTYPE = np.float32


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


def _replay(rows: list[dict], series: dict, key: str, server, trace, *, oracle=None, **labels):
    """Serve ``trace`` on ``server`` and record the replay; return it.

    Single server or cluster, the loop leaves the same shape behind: its
    raw latencies become the ``latency_s.<key>`` series (seconds on the
    replay's virtual clock; what bench-record appends to the history
    store and bench-gate tests against) and one flat report row. With an
    ``oracle`` (trace seq -> exact top-k ids), recall@k is scored over
    the served requests the oracle answers (NaN when there are none).
    """
    replay = server.serve_trace(trace, collect_results=True)
    if oracle is not None:
        common = sorted(replay.results.keys() & oracle.keys())
        replay.metrics.recall_at_k = float("nan")
        if common:
            replay.metrics.recall_at_k = recall_at_k(
                np.array([replay.results[s] for s in common]),
                np.array([oracle[s] for s in common]),
            )
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
    return replay


def _calibrate_naive_qps(index: BruteForceIndex, k: int, samples: int = 64) -> float:
    """Measured single-request brute-force rate (requests/second)."""
    rng = np.random.default_rng(0)
    qids = rng.integers(0, index.num_vectors, size=samples)
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
    brute = BruteForceIndex(emb)
    naive_qps = _calibrate_naive_qps(brute, k)
    rate = load_factor * naive_qps
    trace = zipf_trace(
        num_queries, num_vertices, skew=skew, rate=rate, k=k,
        rng=np.random.default_rng(seed + 1),
    )
    # Exact answers for every request in the trace, for recall scoring.
    oracle = dict(enumerate(brute.search_ids(trace.query_ids, k)[0]))

    naive = ServerConfig(max_batch=1, queue_capacity=queue_capacity)
    batched = replace(naive, max_batch=max_batch, max_wait=2.0 * max_batch / rate)
    cached = replace(batched, cache_capacity=cache_capacity)
    ann = replace(
        cached, deadline=8.0 * max_batch / naive_qps, min_probes=max(2, probes // 4)
    )
    ann_index = build_index(
        emb, "cluster", num_clusters=num_clusters, probes=probes,
        rng=np.random.default_rng(seed + 2),
    )
    rows: list[dict] = []
    series: dict[str, MetricSeries] = {}
    for name, cfg, index in zip(
        CONFIG_NAMES, (naive, batched, cached, ann), (brute, brute, brute, ann_index)
    ):
        server = EmbeddingServer(emb, config=cfg, index=index)
        _replay(rows, series, name, server, trace, oracle=oracle, config=name)
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
    "config", "served", "shed", "throughput_qps", "speedup_vs_naive", "p50_ms",
    "p95_ms", "p99_ms", "hit_rate", "recall_at_k", "degraded_batches",
]


def format_results(results: dict) -> str:
    """Render the comparison as the paper-style fixed-width table."""
    title = (
        "S1: embedding serving under a Zipf(%(zipf_skew).2f) trace — "
        "n=%(num_vertices)d, d=%(dim)d, k=%(k)d, offered %(offered_rate_qps).0f qps "
        "(%(load_factor).0fx naive capacity)" % results["meta"]
    )
    return format_table(results["rows"], columns=_COLUMNS, title=title)


# ----------------------------------------------------------------------
# Experiment S2 — the sharded, replicated cluster (serve-cluster).

def _calibrate_batched_qps(index: BruteForceIndex, k: int, batch: int) -> float:
    """Measured batched brute-force rate (queries/second) at ``batch``.

    The first full-batch scan pays one-off allocation/cache-warming
    costs an order of magnitude above steady state, so it is discarded
    and the median of three warm runs is used.
    """
    rng = np.random.default_rng(0)
    qids = rng.integers(0, index.num_vectors, size=batch)
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


def hedging_scenario(
    emb: np.ndarray,
    *,
    num_queries: int,
    base: ClusterConfig = ClusterConfig(),
    hedge: bool = True,
    assignment: np.ndarray | None = None,
    skew: float = 1.1,
    k: int = 10,
    seed: int = 0,
) -> tuple[ClusterServer, QueryTrace]:
    """The bursty-hedging scenario over ``emb``: ``(server, trace)``.

    ``base`` (without its cache) with one straggler replica per shard
    (:func:`straggler_model`) and hedging on or off, plus a bursty trace
    of ``num_queries`` requests whose bursts queue behind the slow
    replicas. Deterministic: the service model prices every scan.
    Without an ``assignment`` the cluster partitions ``emb`` itself,
    drawing from ``seed + 4``.
    """
    server = ClusterServer(
        emb,
        config=replace(
            base, cache_capacity=0, hedge=hedge, hedge_min_samples=64, hedge_fallback=0.02
        ),
        assignment=assignment,
        service_model=straggler_model(base.replicas),
        rng=np.random.default_rng(seed + 4),
        dtype=_CLUSTER_DTYPE,
    )
    trace = bursty_trace(
        num_queries, emb.shape[0], skew=skew, base_rate=800.0, burst_rate=8000.0,
        base_seconds=0.5, burst_seconds=0.15, k=k, rng=np.random.default_rng(seed + 3),
    )
    return server, trace


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
    2. **bursty-hedging** — :func:`hedging_scenario` on the soak corpus,
       hedging off vs on: hedged requests must lower p99.
    3. **upsert-soak** — a steady trace with the streaming slab
       producer refreshing every shard mid-flight, run under the obs
       layer; the ``cluster_rules`` SLOs (worst per-shard p99,
       staleness bound) are evaluated against the live registry.
    """
    rows: list[dict] = []
    series: dict[str, MetricSeries] = {}
    components = max(64, 16 * num_shards)
    base = ClusterConfig(
        num_shards=num_shards,
        replicas=replicas,
        fanout=fanout,
        max_batch=max_batch,
        queue_capacity=queue_capacity,
        cache_capacity=cache_capacity,
    )

    # ---- phase 1: million-vertex Zipf throughput + recall -----------
    emb = mixture_embeddings(num_vertices, dim, num_components=components, seed=seed)
    brute = BruteForceIndex(emb, dtype=_CLUSTER_DTYPE)
    single_qps = _calibrate_batched_qps(brute, k, max_batch)
    rate = load_factor * single_qps
    trace = zipf_trace(
        num_queries, num_vertices, skew=skew, rate=rate, k=k,
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
        index=brute,
    )
    single_replay = _replay(
        rows, series, "single", single, trace,
        phase=CLUSTER_PHASES[0], config="single-batched",
    )
    cluster = ClusterServer(
        emb,
        config=replace(base, max_wait=batch_wait),
        rng=np.random.default_rng(seed + 2),
        dtype=_CLUSTER_DTYPE,
    )
    # The single brute-force server is exact: its answers are the oracle
    # for the cluster's pruned ones.
    cluster_replay = _replay(
        rows, series, "cluster", cluster, trace, oracle=single_replay.results,
        phase=CLUSTER_PHASES[0], config=f"cluster-{num_shards}x{replicas}",
    )
    single_tp = single_replay.metrics.throughput
    speedup = cluster_replay.metrics.throughput / single_tp if single_tp else 0.0
    rows[-1]["speedup_vs_single"] = speedup

    # ---- phase 2: bursty trace, hedging off vs on -------------------
    # One soak corpus and one partition (the call ClusterServer would
    # make itself) for the three servers of phases 2 and 3.
    emb2 = mixture_embeddings(
        soak_vertices, dim, num_components=components, seed=seed + 10
    )
    assignment = partition_vertices(
        emb2, num_shards=num_shards, rng=np.random.default_rng(seed + 4)
    )
    hedge_replays = {}
    for hedged in (False, True):
        name = "bursty+hedge" if hedged else "bursty-nohedge"
        server, btrace = hedging_scenario(
            emb2, num_queries=max(600, num_queries * 3 // 4), base=base,
            hedge=hedged, assignment=assignment, skew=skew, k=k, seed=seed,
        )
        # The hedged replay runs under obs so its request span forest
        # (hedged duplicates, winner marked) and the tail exemplars that
        # point into it are captured into the trace document written as
        # OBS_serve_cluster.json — every p99 exemplar must resolve to a
        # full span tree there.
        with obs.enabled(hedged):
            obs.reset()
            hedge_replays[hedged] = _replay(
                rows, series, name, server, btrace,
                phase=CLUSTER_PHASES[1], config=name,
            )
    trace_doc = trace_document("serve_cluster_hedged")
    p99_nohedge = hedge_replays[False].metrics.latency.percentile(99.0)
    p99_hedge = hedge_replays[True].metrics.latency.percentile(99.0)

    # ---- phase 3: streaming upserts under the obs SLOs --------------
    strace = zipf_trace(
        max(600, num_queries // 2), soak_vertices, skew=skew, rate=3000.0, k=k,
        rng=np.random.default_rng(seed + 5),
    )
    span_est = strace.arrivals[-1] - strace.arrivals[0]
    upsert_rounds = 3
    interval = 0.8 * span_est / (upsert_rounds * num_shards)
    staleness_bound = 4.0 * num_shards * interval + 0.25
    with obs.enabled():
        obs.reset()
        soak = ClusterServer(
            emb2,
            config=base,
            assignment=assignment,
            service_model=straggler_model(replicas, slow_factor=1.0),
            upserts=SlabUpsertProducer(
                emb2,
                assignment,
                start=float(strace.arrivals[0]),
                interval=float(interval),
                rounds=upsert_rounds,
                seed=seed + 7,
            ),
            dtype=_CLUSTER_DTYPE,
        )
        soak_replay = _replay(
            rows, series, "upsert-soak", soak, strace,
            phase=CLUSTER_PHASES[2], config="upsert-soak",
        )
        slo_results = evaluate(
            cluster_rules(
                per_shard_p99=0.050, staleness_bound=float(staleness_bound)
            ),
            SLOContext(),
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
            "recall_at_k_cluster": cluster_replay.metrics.recall_at_k,
            "p99_ms_nohedge": p99_nohedge * 1e3,
            "p99_ms_hedge": p99_hedge * 1e3,
            "hedges": hedge_replays[True].stats["hedges"],
            "hedge_wins": hedge_replays[True].stats["hedge_wins"],
            "upserts_applied": soak_replay.stats["upserts_applied"],
            "max_staleness_s": soak_replay.stats["max_staleness_s"],
            "staleness_bound_s": float(staleness_bound),
            "slo_ok": all(r["status"] == "ok" for r in slo_rows),
        },
    }


_CLUSTER_COLUMNS = [
    "phase", "config", "served", "shed", "throughput_qps", "speedup_vs_single",
    "p50_ms", "p99_ms", "hit_rate", "recall_at_k", "mean_fanout", "hedges",
    "hedge_wins", "upserts", "max_staleness_ms",
]

_SLO_COLUMNS = ["rule", "kind", "value", "threshold", "status", "detail"]


def format_cluster_results(results: dict) -> str:
    """Render the cluster experiment: phase table plus the SLO report."""
    title = (
        "S2: sharded cluster serving — n=%(num_vertices)d, d=%(dim)d, "
        "%(num_shards)d shards x %(replicas)d replicas, fanout %(fanout)d, "
        "offered %(offered_rate_qps).0f qps (%(load_factor).0fx single capacity)"
        % results["meta"]
    )
    table = format_table(results["rows"], columns=_CLUSTER_COLUMNS, title=title)
    slo = format_table(results["slo"], columns=_SLO_COLUMNS, title="cluster SLOs")
    return table + "\n\n" + slo
