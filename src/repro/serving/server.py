"""The embedding query server: index + micro-batcher + cache + metrics.

:class:`EmbeddingServer` replays a request trace on the shared
discrete-event loop (:mod:`repro.serving.replay`) as its smallest
topology: one shard wrapping the prebuilt index, one replica, fan-out 1.
Service times are either *measured* around the real index kernels
(honest wall-clock cost, the benchmark mode) or supplied by a
deterministic ``service_model`` (the unit-test mode). Queueing,
micro-batch formation, load shedding and deadline-based degradation all
happen on the replay clock, so overload behavior is reproducible while
compute cost stays real.

Overload handling, in order of escalation:

1. **micro-batching** — pending queries coalesce into one batched scan
   (up to ``max_batch``), amortizing the kernel launch;
2. **deadline degradation** — when the batch's head request has waited
   past ``deadline``, an ANN index is probed with half the cells per
   deadline overrun (never below ``min_probes``): latency is bought with
   bounded recall loss;
3. **load shedding** — arrivals beyond ``queue_capacity`` pending
   requests are dropped and counted, keeping worst-case latency bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs.trace import span
from .cache import GenerationalCache
from .index import BruteForceIndex, ClusterIndex, build_index, l2_normalize_rows
from .metrics import ServingMetrics
from .replay import ReplayLoop
from .workload import QueryTrace

__all__ = ["ServerConfig", "TraceReplay", "EmbeddingServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Knobs for one server instance (see module docstring)."""

    max_batch: int = 32
    max_wait: float = 0.0  # seconds a partial batch waits for company
    queue_capacity: int = 256  # pending requests before shedding
    cache_capacity: int = 0  # 0 disables the result cache
    deadline: float | None = None  # None disables probe degradation
    min_probes: int = 1


@dataclass
class TraceReplay:
    """Outcome of one trace replay: metrics plus (optionally) results."""

    metrics: ServingMetrics
    results: dict[int, np.ndarray] | None = None  # trace seq -> top-k ids
    batch_stats: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)  # the loop's


class EmbeddingServer:
    """Serve k-NN queries over an embedding matrix under load."""

    def __init__(
        self,
        embeddings: np.ndarray,
        *,
        config: ServerConfig | None = None,
        index: str | BruteForceIndex | ClusterIndex = "brute",
        index_kwargs: dict | None = None,
        service_model: Callable[[int, int], float] | None = None,
    ):
        self.config = config or ServerConfig()
        if isinstance(index, str):
            self.index = build_index(embeddings, index, **(index_kwargs or {}))
        else:
            self.index = index
        self.cache = (
            GenerationalCache(self.config.cache_capacity)
            if self.config.cache_capacity > 0
            else None
        )
        # service_model(batch_size, rows_scanned) -> seconds; None means
        # measure the real kernel time with perf_counter.
        self.service_model = service_model
        self.refreshes = 0

    # ------------------------------------------------------------------
    # Single-request path (no queueing — the convenience API).
    def query(self, query_id: int, k: int = 10) -> np.ndarray:
        """Top-``k`` neighbor ids of one vertex, through the cache."""
        key = (int(query_id), int(k))
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        idx, _ = self.index.search_ids(np.array([query_id]), k)
        result = idx[0].copy()
        if self.cache is not None:
            self.cache.put(key, result)
        return result

    def refresh_embeddings(self, embeddings: np.ndarray) -> None:
        """Swap in a new embedding matrix: refresh the index (same
        structure — cells, probes, ``kmeans_iters``, dtype; k-means cells
        warm-started from where they are, caller-supplied cells kept) and
        invalidate every cached result."""
        self.index = self.index.refreshed(
            l2_normalize_rows(embeddings, dtype=self.index.dtype)
        )
        if self.cache is not None:
            self.cache.invalidate()
        self.refreshes += 1

    # ------------------------------------------------------------------
    # Trace replay.
    def serve_trace(
        self, trace: QueryTrace, *, collect_results: bool = False
    ) -> TraceReplay:
        """Replay ``trace`` through the event loop; return metrics.

        With :mod:`repro.obs` enabled, the replay records one
        ``serve.trace`` span with a ``serve.batch`` child per batch (the
        scan under ``serve.search``), the ``serve.*`` counters, and per
        request a :class:`~repro.obs.context.RequestContext` tree (queue
        wait, then batch service, on the replay clock) whose id rides its
        latency sample into the tail-exemplar reservoir.
        """
        loop = _ServerReplay(self, trace, collect_results).run()
        # The one shard is the server: its batch counters are the run's.
        metrics, shard = loop.metrics, loop.shard_metrics[0]
        metrics.batches = shard.batches
        metrics.degraded_batches = shard.degraded_batches
        metrics.rows_scanned = shard.rows_scanned
        metrics.service_time_total = shard.service_time_total
        return TraceReplay(
            metrics=metrics,
            results=loop.results,
            batch_stats=loop.replicas[0].batcher.stats.as_dict(),
            stats=loop.stats,
        )

    def _effective_probes(self, lateness: float) -> int | None:
        """Probe count for a batch whose head waited ``lateness`` seconds
        (``None`` for an exact index): halved per deadline overrun."""
        if not isinstance(self.index, ClusterIndex):
            return None
        base = self.index.default_probes
        if self.config.deadline is None or lateness <= self.config.deadline:
            return base
        halvings = min(int(lateness / self.config.deadline), 16)
        return max(self.config.min_probes, base >> halvings)


class _ServerReplay(ReplayLoop):
    """The loop's smallest topology, with the single server's hooks."""

    prefix = "serve"

    def search(self, shard, qids, lateness):
        index = self.server.index
        probes = self.server._effective_probes(lateness)
        with span("serve.search"):
            if probes is None:
                idx, sims = index.search_ids(qids, self.k)
            else:
                idx, sims = index.search_ids(qids, self.k, probes=probes)
                if probes < index.default_probes:
                    self.shard_metrics[shard].degraded_batches += 1
        return idx, sims, getattr(index, "last_rows_scanned", 0)

    def model_seconds(self, replica, size, rows):
        return self.server.service_model(size, rows)

    def merge(self, query):
        # search_ids already left the query vertex out: nothing to merge.
        won = query.subs[0].winner
        return won.run.ids[won.row, : self.k].copy()

    def observe_request(self, query, t_end, *, shed):
        ctx = query.ctx
        if shed:
            ctx.finish(t_end, shed=True)
            return
        run = query.subs[0].winner.run
        if run.t_start > query.arrival:
            ctx.child("serve.queue", query.arrival, t_end=run.t_start)
        ctx.child(
            "serve.service", run.t_start, t_end=run.completion,
            size=run.size, rows=run.rows,
        )
        ctx.finish(t_end)
