"""Query routing for the sharded serving cluster.

Three small policies, each independently testable:

* :class:`CentroidRouter` — GOSH-style coarse routing: each shard is
  summarized by the (normalized) mean of its member embeddings, and a
  query fans out only to the ``fanout`` shards whose centroids score
  highest under cosine similarity. The vertex partition itself comes
  from :mod:`repro.graphs.partition` (graph-aware) or spherical k-means
  (embedding-aware); the router only consumes the assignment.
* :class:`LeastOutstandingDispatcher` — replica selection by fewest
  outstanding requests, deterministic tie-break on replica index.
* :class:`HedgePolicy` — hedged requests: after a request has waited
  past an adaptive latency-percentile threshold, a duplicate is issued
  to another replica and the first completion wins.
"""

from __future__ import annotations

import numpy as np

from ..kernels import ops as kernel_ops
from ..obs.metrics import LatencyHistogram
from .index import _topk_desc

__all__ = ["CentroidRouter", "LeastOutstandingDispatcher", "HedgePolicy"]


class CentroidRouter:
    """Top-``fanout`` shard selection by centroid cosine similarity."""

    def __init__(self, normed: np.ndarray, assignment: np.ndarray):
        assignment = np.asarray(assignment, dtype=np.int64).ravel()
        if assignment.shape[0] != normed.shape[0]:
            raise ValueError("assignment length != number of embedding rows")
        if assignment.size and assignment.min() < 0:
            raise ValueError("assignment must be non-negative")
        self.assignment = assignment
        self.num_shards = int(assignment.max()) + 1 if assignment.size else 0
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        self.dtype = normed.dtype
        self._members = [
            np.flatnonzero(assignment == s) for s in range(self.num_shards)
        ]
        # Membership never changes (upserts move embeddings, not
        # vertices), so which shards are routable is fixed here.
        self._empty = np.array([m.size == 0 for m in self._members])
        #: Shards that actually own vertices (routable); at least one.
        self.nonempty_shards = int(self.num_shards - self._empty.sum())
        self._centroids = np.zeros(
            (self.num_shards, normed.shape[1]), dtype=self.dtype
        )
        for s in range(self.num_shards):
            self.refresh_centroid(s, normed[self._members[s]])

    def members(self, shard: int) -> np.ndarray:
        """Global vertex ids owned by ``shard`` (sorted)."""
        return self._members[shard]

    def refresh_centroid(self, shard: int, normed_rows: np.ndarray) -> None:
        """Recompute one shard's centroid after an embedding upsert."""
        if normed_rows.shape[0] == 0:
            self._centroids[shard] = 0.0
            return
        mean = normed_rows.mean(axis=0)
        norm = np.linalg.norm(mean)
        self._centroids[shard] = mean / norm if norm > 0 else normed_rows[0]

    def route(
        self,
        query_vecs: np.ndarray,
        fanout: int,
        *,
        owners: np.ndarray | None = None,
    ) -> np.ndarray:
        """Top-``fanout`` shard ids per query, best centroid first.

        Empty shards are never routed to (``fanout`` is clamped to the
        non-empty count). ``owners[i]`` (optional) is a shard forced into
        query ``i``'s fan-out set — the query vertex's own shard, so its
        immediate neighborhood is always scanned even when the centroid
        ranking would miss it.
        """
        qn = np.atleast_2d(np.asarray(query_vecs, dtype=self.dtype))
        fanout = min(max(int(fanout), 1), self.nonempty_shards)
        sims = kernel_ops.gemm(qn, self._centroids.T)
        if self.nonempty_shards < self.num_shards:
            sims[:, self._empty] = -np.inf
        top = _topk_desc(sims, fanout)
        if owners is not None:
            owners = np.asarray(owners, dtype=np.int64).ravel()
            missing = ~(top == owners[:, None]).any(axis=1)
            top[missing, -1] = owners[missing]
        return top


class LeastOutstandingDispatcher:
    """Pick the replica with the fewest outstanding requests.

    Stateless: callers pass the current outstanding count per replica
    (queued plus in-service). Ties break to the lowest replica index so
    replays are deterministic.
    """

    @staticmethod
    def pick(outstanding) -> int:
        if not len(outstanding):
            raise ValueError("no replicas to pick from")
        return min(range(len(outstanding)), key=lambda j: (outstanding[j], j))


class HedgePolicy:
    """Adaptive hedge-trigger threshold from observed latencies.

    Until ``min_samples`` latencies have been observed the threshold is
    the fixed ``fallback``; after that it is the ``percentile``-th
    percentile of everything seen so far (the classic "hedge after the
    p95" tail-cutting rule). Observations come from completed sub-request
    latencies, so the threshold adapts to the cluster's real service
    distribution during a replay.
    """

    def __init__(
        self,
        *,
        percentile: float = 95.0,
        min_samples: int = 32,
        fallback: float = 0.05,
    ):
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if fallback <= 0:
            raise ValueError("fallback must be positive")
        self.percentile = percentile
        self.min_samples = min_samples
        self.fallback = fallback
        self._hist = LatencyHistogram()

    def __len__(self) -> int:
        return len(self._hist)

    def observe(self, latency: float) -> None:
        """Record one completed sub-request latency."""
        self._hist.record(max(latency, 0.0))

    def threshold(self) -> float:
        """Current wait before a duplicate request is issued."""
        if len(self._hist) < self.min_samples:
            return self.fallback
        return float(self._hist.percentile(self.percentile))

    def describe(self) -> dict[str, float]:
        """Snapshot of the policy's state (attached to hedge spans and
        flight-recorder events so a dump explains *why* a duplicate was
        issued at that moment)."""
        return {
            "threshold": self.threshold(),
            "samples": float(len(self._hist)),
            "percentile": self.percentile,
            "adaptive": float(len(self._hist) >= self.min_samples),
        }
