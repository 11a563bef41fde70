"""Sharded, replicated embedding serving with streaming upserts.

The single-node :class:`~repro.serving.server.EmbeddingServer` scans one
index; production traffic at the ROADMAP's scale wants the GraphVite /
GOSH shape instead: vertices are *partitioned* into shards (spherical
k-means in embedding space), each shard holds an index over its members
behind a small replica set, and a query fans out only to the
``fanout`` shards whose centroids rank highest
(:class:`~repro.serving.router.CentroidRouter`).

:class:`ClusterServer` replays traces on the shared discrete-event loop
(:mod:`repro.serving.replay` — admission, per-replica micro-batching,
least-outstanding replica choice, shedding, hedge timers, slab timing),
the one the single server runs as its 1-shard x 1-replica case, so the
whole cluster stays deterministic and unit-testable. This module
supplies what is the cluster's own: centroid **routing**, the
shard-local **scan** (measured, or priced by a deterministic
``service_model(shard, replica, batch_size, rows)``), the
:class:`~repro.serving.router.HedgePolicy`, the **upsert** swap (shard
index refreshed in place of a rebuild — see
:meth:`~repro.serving.index.ClusterIndex.refreshed` — routing centroid
recomputed, and only the refreshed shard's cache *group* invalidated)
and the **merge** via
:func:`~repro.serving.index.merge_topk` — over a full fan-out,
bit-identical to the unsharded
:class:`~repro.serving.index.BruteForceIndex` top-k (property-tested).

Obs: ``cluster.*`` counters/histograms (fan-out width, hedge rate,
replica queue depth, upsert lag, staleness, per-shard latency) feed the
``per_shard_p99`` and ``staleness_bound`` SLO rules in
:mod:`repro.obs.slo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..obs.flight import flight_event
from .cache import GenerationalCache
from .index import _spherical_kmeans, build_index, l2_normalize_rows, merge_topk
from .metrics import ServingMetrics
from .replay import ReplayLoop
from .router import CentroidRouter, HedgePolicy
from .upsert import SlabUpsertProducer
from .workload import QueryTrace

__all__ = [
    "ClusterConfig",
    "ClusterReplay",
    "ClusterServer",
    "ShardedIndex",
    "partition_vertices",
]


def partition_vertices(
    embeddings: np.ndarray, *, num_shards: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Vertex -> shard assignment for the cluster: spherical k-means in
    embedding space, the shards the centroid router prunes best."""
    normed = l2_normalize_rows(embeddings)
    _, assignment, _ = _spherical_kmeans(normed, num_shards, rng or np.random.default_rng(0))
    return assignment


class ShardedIndex:
    """Shard-partitioned index with centroid routing and top-k merge.

    The query-plane core of the cluster, without replicas or queueing:
    per-shard :class:`~repro.serving.index.BruteForceIndex` /
    :class:`~repro.serving.index.ClusterIndex` instances
    over member rows, a :class:`CentroidRouter` over the partition, and
    :func:`merge_topk` across the fan-out. ``fanout=None`` scans every
    shard — bit-identical to the unsharded brute-force scan.
    """

    def __init__(
        self,
        embeddings: np.ndarray,
        assignment: np.ndarray,
        *,
        index: str = "brute",
        index_kwargs: dict | None = None,
        include_owner: bool = True,
        dtype=np.float64,
    ):
        self.dtype = np.dtype(dtype)
        embeddings = np.asarray(embeddings)
        self._normed = l2_normalize_rows(embeddings, dtype=self.dtype)
        self.router = CentroidRouter(self._normed, assignment)
        self.include_owner = include_owner
        self.index_kind = index
        self.index_kwargs = dict(index_kwargs or {})
        self.indexes = [
            self._build(embeddings[self.router.members(s)], s)
            for s in range(self.num_shards)
        ]
        self.last_rows_scanned = 0

    def _build(self, member_rows: np.ndarray, shard: int):
        kwargs = dict(self.index_kwargs)
        if self.index_kind == "cluster":
            kwargs.setdefault("rng", np.random.default_rng(7_000 + shard))
        return build_index(member_rows, self.index_kind, dtype=self.dtype, **kwargs)

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def num_vectors(self) -> int:
        return self._normed.shape[0]

    @property
    def assignment(self) -> np.ndarray:
        """Vertex -> shard assignment (what the upsert producer needs)."""
        return self.router.assignment

    def replace_shard(self, shard: int, vertex_ids: np.ndarray, vectors: np.ndarray) -> None:
        """Swap one shard's embeddings in (the upsert path): the slab is
        normalised once and the shard's index refreshed, not rebuilt."""
        normed_rows = l2_normalize_rows(vectors, dtype=self.dtype)
        self._normed[vertex_ids] = normed_rows
        self.indexes[shard] = self.indexes[shard].refreshed(normed_rows)
        self.router.refresh_centroid(shard, normed_rows)

    def route(self, query_ids: np.ndarray, fanout: int) -> np.ndarray:
        """Top-``fanout`` shards per indexed vertex, best centroid first
        (the vertex's own shard forced in under ``include_owner``)."""
        owners = self.router.assignment[query_ids] if self.include_owner else None
        return self.router.route(self._normed[query_ids], fanout, owners=owners)

    def search_shard(
        self, shard: int, query_ids: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shard's top-``k + 1`` candidates for indexed vertices, as
        global ids (``-1`` padded); the vertices themselves are still in
        — :func:`merge_topk` drops them."""
        index = self.indexes[shard]
        idx_local, sims = index.search(
            self._normed[query_ids], min(k + 1, index.num_vectors), normalized=True
        )
        members = self.router.members(shard)
        return np.where(idx_local >= 0, members[idx_local], -1), sims

    def search_ids(
        self,
        query_ids: np.ndarray,
        k: int,
        *,
        fanout: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` neighbors of indexed vertices, excluding themselves.

        ``fanout=None`` (or >= the shard count) fans out everywhere —
        the exact path; smaller values prune via centroid routing.
        """
        query_ids = np.asarray(query_ids, dtype=np.int64).ravel()
        k = max(1, min(k, self.num_vectors - 1))
        routed = self.route(query_ids, self.num_shards if fanout is None else fanout)
        num_q = query_ids.shape[0]
        parts_ids: list[list[np.ndarray]] = [[] for _ in range(num_q)]
        parts_sims: list[list[np.ndarray]] = [[] for _ in range(num_q)]
        scanned = 0
        # Invert routing: one batched search per shard over the queries
        # that fan out to it (the replica batching the ClusterServer does
        # per-request, collapsed into one pass).
        for s in range(self.num_shards):
            qsel = np.flatnonzero((routed == s).any(axis=1))
            if qsel.size == 0 or self.router.members(s).size == 0:
                continue
            gids, sims = self.search_shard(s, query_ids[qsel], k)
            scanned += self.indexes[s].last_rows_scanned
            for row, q in enumerate(qsel):
                parts_ids[q].append(gids[row])
                parts_sims[q].append(sims[row])
        self.last_rows_scanned = scanned
        idx_out = np.full((num_q, k), -1, dtype=np.int64)
        sim_out = np.full((num_q, k), -np.inf, dtype=self.dtype)
        for q in range(num_q):
            idx_out[q], sim_out[q] = merge_topk(
                parts_ids[q],
                parts_sims[q],
                k,
                exclude=int(query_ids[q]),
                dtype=self.dtype,
            )
        return idx_out, sim_out


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for one serving cluster (see module docstring). Kernel
    dispatch is not one of them — see
    :class:`~repro.serving.server.ServerConfig`."""

    num_shards: int = 4
    replicas: int = 2  # per shard
    fanout: int = 2  # shards scanned per query
    max_batch: int = 32
    max_wait: float = 0.0
    queue_capacity: int = 256  # per replica, pending sub-requests
    cache_capacity: int = 0  # 0 disables the merged-result cache
    hedge: bool = False
    hedge_percentile: float = 95.0
    hedge_min_samples: int = 32
    hedge_fallback: float = 0.05  # seconds, pre-warmup hedge trigger
    include_owner: bool = True  # force the query's own shard into fan-out
    shard_index: str = "brute"  # per-shard index kind

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")


@dataclass
class ClusterReplay:
    """Outcome of one cluster trace replay."""

    metrics: ServingMetrics  # cluster-level (end-to-end latencies)
    shard_metrics: list[ServingMetrics]  # per-shard sub-request view
    results: dict[int, np.ndarray] | None = None  # trace seq -> top-k ids
    stats: dict[str, float] = field(default_factory=dict)


class ClusterServer:
    """Discrete-event sharded serving cluster (see module docstring)."""

    def __init__(
        self,
        embeddings: np.ndarray,
        *,
        config: ClusterConfig | None = None,
        assignment: np.ndarray | None = None,
        index_kwargs: dict | None = None,
        service_model: Callable[[int, int, int, int], float] | None = None,
        upserts: SlabUpsertProducer | None = None,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        self.config = config or ClusterConfig()
        cfg = self.config
        if assignment is None:
            assignment = partition_vertices(
                embeddings,
                num_shards=cfg.num_shards,
                rng=rng,
            )
        self.sharded = ShardedIndex(
            embeddings,
            assignment,
            index=cfg.shard_index,
            index_kwargs=index_kwargs,
            include_owner=cfg.include_owner,
            dtype=dtype,
        )
        self.cache = (
            GenerationalCache(cfg.cache_capacity)
            if cfg.cache_capacity > 0
            else None
        )
        # service_model(shard, replica, batch_size, rows_scanned) -> s;
        # None measures the real kernel time (benchmark mode).
        self.service_model = service_model
        self.upserts = upserts
        self.shard_loaded_at = [0.0] * self.num_shards  # slab produced_at
        self.upserts_applied = 0

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    def route(self, query_id: int) -> np.ndarray:
        """The shards one vertex's query fans out to, best centroid first."""
        return self.sharded.route(np.array([query_id]), self.config.fanout)[0]

    # ------------------------------------------------------------------
    # Single-request convenience path (no queueing).
    def query(self, query_id: int, k: int = 10) -> np.ndarray:
        """Top-``k`` neighbor ids of one vertex, through the cache."""
        key = (int(query_id), int(k))
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
        idx, _ = self.sharded.search_ids(
            np.array([query_id]), k, fanout=self.config.fanout
        )
        result = idx[0].copy()
        if self.cache is not None:
            groups = tuple(self.route(query_id).tolist())
            self.cache.put(key, result, groups=groups)
        return result

    # ------------------------------------------------------------------
    # Trace replay.
    def serve_trace(
        self, trace: QueryTrace, *, collect_results: bool = False
    ) -> ClusterReplay:
        """Replay ``trace`` through the cluster event loop.

        With :mod:`repro.obs` enabled, emits ``cluster.*`` counters and
        histograms (fan-out width, hedge rate, replica queue depth,
        per-shard latency, staleness, upsert lag) on the shared registry.
        """
        loop = _ClusterReplayLoop(self, trace, collect_results).run()
        if obs_enabled():
            obs_metrics.inc("cluster.hedges", int(loop.stats["hedges"]))
            obs_metrics.inc("cluster.hedge_wins", int(loop.stats["hedge_wins"]))
            obs_metrics.inc("cluster.upserts", int(loop.stats["upserts_applied"]))
        return ClusterReplay(loop.metrics, loop.shard_metrics, loop.results, loop.stats)


class _ClusterReplayLoop(ReplayLoop):
    """The loop over shards x replicas, with the cluster's hooks."""

    prefix = "cluster"

    def __init__(self, server: ClusterServer, trace, collect_results: bool):
        cfg = server.config
        hedge = HedgePolicy(
            percentile=cfg.hedge_percentile,
            min_samples=cfg.hedge_min_samples,
            fallback=cfg.hedge_fallback,
        ) if cfg.hedge else None
        super().__init__(
            server, trace, collect_results, num_shards=server.num_shards,
            replicas=cfg.replicas, hedge=hedge, upserts=server.upserts,
            loaded_at=server.shard_loaded_at,
        )

    def route(self, qid):
        shards = tuple(self.server.route(qid).tolist())
        if self.tracing:
            obs_metrics.observe("cluster.fanout_width", len(shards))
        return shards

    def search(self, shard, qids, lateness):
        sharded = self.server.sharded
        gids, sims = sharded.search_shard(shard, qids, self.k)
        return gids, sims, getattr(sharded.indexes[shard], "last_rows_scanned", 0)

    def model_seconds(self, replica, size, rows):
        return self.server.service_model(replica.shard, replica.idx, size, rows)

    def merge(self, query):
        won = [s.winner for s in query.subs]
        return merge_topk(
            [d.run.ids[d.row] for d in won],
            [d.run.sims[d.row] for d in won],
            self.k,
            exclude=query.qid,
            dtype=self.server.sharded.dtype,
        )[0]

    def swap_shard(self, slab):
        sharded = self.server.sharded
        sharded.replace_shard(slab.shard, slab.vertex_ids, slab.vectors)
        self.server.upserts_applied += 1
        return sharded.indexes[slab.shard]

    def observe_dispatch(self, replica, t):
        obs_metrics.observe("cluster.replica_queue_depth", replica.outstanding(t))

    def observe_sub(self, sub, latency, staleness):
        obs_metrics.observe(
            f"cluster.shard.{sub.shard}.latency_seconds",
            latency,
            request_id=sub.query.ctx.request_id,
        )
        obs_metrics.observe("cluster.staleness_seconds", staleness)

    def observe_request(self, query, t_end, *, shed):
        """The fan-out as spans: route, then one sub-request per shard
        with one dispatch per queued copy — hedged duplicates marked
        ``winner`` / ``lost``, copies of a shed query ``cancelled``."""
        ctx, t = query.ctx, query.arrival
        ctx.child("cluster.route", t, t_end=t, shards=list(query.shards))
        for sub in query.subs:
            sub_sp = ctx.child("cluster.subrequest", t, shard=sub.shard)
            if sub.winner is not None:
                sub_sp.t_end = sub.winner.run.completion
            for d in sub.dispatches:
                sp = ctx.child(
                    "cluster.dispatch", d.arrival, parent=sub_sp,
                    shard=sub.shard, replica=d.replica.idx, hedge=d.is_hedge,
                )
                if d.run is None:
                    sp.attrs["cancelled"] = True
                    continue
                sp.t_end = d.run.completion
                sp.set(
                    queue_s=max(d.run.t_start - d.arrival, 0.0),
                    service_s=d.run.duration,
                    batch_size=d.run.size,
                )
                sp.attrs["winner" if d is sub.winner else "lost"] = True
            if not sub.dispatches:
                break  # the full queue that shed the query
        if not shed:
            ctx.finish(t_end, fanout=len(query.subs))
            return
        ctx.finish(t_end, shed=True)
        flight_event(  # `sub` is the sub-request the loop above broke on
            "cluster.shed", qid=query.qid, shard=sub.shard, virtual_t=t_end,
            request_id=ctx.request_id,
        )
