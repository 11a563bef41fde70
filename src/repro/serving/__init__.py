"""Embedding-serving subsystem: the paper's downstream workload, built out.

Section I motivates graph embedding with serving-time applications
("content recommendation" by nearest-neighbor retrieval); the ROADMAP's
north star is a system that serves heavy traffic. This package is that
layer: it takes a trained model's embedding matrix and serves k-NN /
vertex-embedding requests under a simulated request stream, with

* :mod:`repro.serving.index` — exact and cluster-pruned ANN indexes plus
  the recall@k evaluation helper;
* :mod:`repro.serving.batcher` — the micro-batching admission queue;
* :mod:`repro.serving.cache` — the generation-stamped LRU result cache;
* :mod:`repro.serving.replay` — the one discrete-event loop every trace
  replay runs on;
* :mod:`repro.serving.server` — the single-index front-end with load
  shedding and deadline-based ANN degradation;
* :mod:`repro.serving.metrics` — latency percentiles, throughput,
  hit-rate, recall;
* :mod:`repro.serving.workload` — Zipf-skewed Poisson query traces,
  plus bursty and diurnal arrival processes;
* :mod:`repro.serving.router` — centroid shard routing, least-
  outstanding replica dispatch, hedged-request policy;
* :mod:`repro.serving.upsert` — streaming embedding-slab producer;
* :mod:`repro.serving.cluster` — the sharded, replicated
  :class:`~repro.serving.cluster.ClusterServer` front-end on the same
  loop.

``python -m repro.cli serve-bench`` and ``serve-cluster`` benchmark the
two front-ends (see the README's Serving section).
"""

from .batcher import MicroBatcher
from .cache import GenerationalCache
from .cluster import (
    ClusterConfig,
    ClusterReplay,
    ClusterServer,
    ShardedIndex,
    partition_vertices,
)
from .index import (
    BruteForceIndex,
    ClusterIndex,
    build_index,
    l2_normalize_rows,
    merge_topk,
    recall_at_k,
)
from .metrics import ServingMetrics
from .router import CentroidRouter, HedgePolicy, LeastOutstandingDispatcher
from .server import EmbeddingServer, ServerConfig, TraceReplay
from .upsert import SlabUpsertProducer, UpsertSlab, drift_refresh
from .workload import (
    QueryTrace,
    bursty_trace,
    modulated_trace,
    zipf_trace,
)

__all__ = [
    "BruteForceIndex",
    "ClusterIndex",
    "build_index",
    "l2_normalize_rows",
    "merge_topk",
    "recall_at_k",
    "MicroBatcher",
    "GenerationalCache",
    "ServingMetrics",
    "EmbeddingServer",
    "ServerConfig",
    "TraceReplay",
    "ClusterConfig",
    "ClusterReplay",
    "ClusterServer",
    "ShardedIndex",
    "partition_vertices",
    "CentroidRouter",
    "HedgePolicy",
    "LeastOutstandingDispatcher",
    "SlabUpsertProducer",
    "UpsertSlab",
    "drift_refresh",
    "QueryTrace",
    "zipf_trace",
    "bursty_trace",
    "modulated_trace",
]
