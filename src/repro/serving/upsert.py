"""Streaming embedding upserts: refreshed slabs pushed into live shards.

GraphVite's producer/consumer split — trainers keep producing embedding
updates while serving consumes them — is modeled here as a *slab
producer*: on a fixed staggered schedule (round-robin over shards, one
slab every ``interval`` virtual seconds), the producer emits an
:class:`UpsertSlab` carrying refreshed raw embeddings for one shard's
members. The :class:`~repro.serving.cluster.ClusterServer` applies every
slab whose ``produced_at`` precedes the next event on its simulated
clock, so upserts land *between* batches exactly as a lock-free
generation swap would: in-flight batches serve the old slab, later ones
the new, and the per-shard generation bump in
:class:`~repro.serving.cache.GenerationalCache` kills exactly the cached
results that touched the refreshed shard.

Slab content is deterministic — submission ``i`` always derives its
noise from the ``i``-th child of one :class:`numpy.random.SeedSequence`,
the same scheme as :class:`repro.sampling.scheduler.SubgraphPool` —
so the optional compute-ahead thread (``prefetch=True``, again the
pool's pattern: a bounded queue of futures computed ahead of the
consumer) changes wall-clock overlap but never results. The default
``refresh_fn`` is a drift random walk standing in for continued
training; pass your own (e.g. one that re-runs
``compute_embeddings`` on a trainer checkpoint) to stream real model
output.
"""

from __future__ import annotations

import collections
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics

__all__ = ["UpsertSlab", "SlabUpsertProducer", "drift_refresh"]


@dataclass(frozen=True)
class UpsertSlab:
    """One shard's refreshed embeddings, stamped with production time."""

    shard: int
    vertex_ids: np.ndarray  # global ids of the shard's members
    vectors: np.ndarray  # (len(vertex_ids), d) raw embeddings
    produced_at: float  # virtual seconds on the replay clock
    round: int  # refresh round (0-based)


def drift_refresh(scale: float = 0.01) -> Callable:
    """Default refresh: a Gaussian drift walk on the current rows.

    Stands in for continued training: each round nudges the shard's
    embeddings without tearing up the geometry, so recall stays high
    while every refresh still changes the served bits.
    """

    def _refresh(
        shard: int, rnd: int, current_rows: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return current_rows + scale * rng.standard_normal(current_rows.shape)

    return _refresh


class SlabUpsertProducer:
    """Deterministic staggered schedule of per-shard embedding refreshes.

    Slab ``j`` refreshes shard ``j % num_shards`` at virtual time
    ``start + j * interval`` (round ``j // num_shards``), for
    ``rounds * num_shards`` slabs total — every shard is refreshed once
    per round, staggered so the cluster never swaps two shards at the
    same instant.

    Parameters
    ----------
    embeddings:
        The raw (unnormalized) matrix being served; copied, then evolved
        by ``refresh_fn`` round over round.
    assignment:
        Vertex -> shard ownership (the cluster's partition).
    start, interval:
        Schedule origin and spacing in virtual seconds.
    rounds:
        Refresh rounds (each covers every shard once).
    refresh_fn:
        ``(shard, round, current_rows, rng) -> new_rows``; defaults to
        :func:`drift_refresh`.
    prefetch, depth:
        Compute slabs ahead on one background thread with a bounded
        in-flight queue (the :class:`SubgraphPool` pattern).
        Results are identical either way.
    """

    def __init__(
        self,
        embeddings: np.ndarray,
        assignment: np.ndarray,
        *,
        start: float = 0.0,
        interval: float = 1.0,
        rounds: int = 1,
        seed: int = 0,
        refresh_fn: Callable | None = None,
        prefetch: bool = False,
        depth: int = 2,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        assignment = np.asarray(assignment, dtype=np.int64).ravel()
        if assignment.shape[0] != embeddings.shape[0]:
            raise ValueError("assignment length != number of embedding rows")
        self.num_shards = int(assignment.max()) + 1
        self._members = [
            np.flatnonzero(assignment == s) for s in range(self.num_shards)
        ]
        self._current = np.array(embeddings, dtype=np.float64, copy=True)
        self.start = float(start)
        self.interval = float(interval)
        self.total = rounds * self.num_shards
        self.refresh_fn = refresh_fn or drift_refresh()
        self._seeds = np.random.SeedSequence(seed).spawn(self.total)
        self._next = 0  # next slab index to compute
        self._emitted = 0  # next slab index to hand out
        self._ready: collections.deque[Future | UpsertSlab] = collections.deque()
        self._executor = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="slab-upsert")
            if prefetch
            else None
        )
        self._depth = depth
        self._closed = False
        self._fill()

    # -- producers -----------------------------------------------------
    def _compute(self, j: int) -> UpsertSlab:
        # Wall seconds of producing one slab (on the replay's thread unless
        # ``prefetch``): otherwise it hides in the replay's self time. Not a
        # ``cluster.*`` name: those are the replay's, on the replay clock.
        t0 = perf_counter() if obs_enabled() else None
        shard = j % self.num_shards
        members = self._members[shard]
        rng = np.random.default_rng(self._seeds[j])
        rows = self.refresh_fn(
            shard, j // self.num_shards, self._current[members], rng
        )
        rows = np.asarray(rows, dtype=self._current.dtype)
        self._current[members] = rows
        slab = UpsertSlab(
            shard=shard,
            vertex_ids=members,
            vectors=rows.copy(),
            produced_at=self.start + j * self.interval,
            round=j // self.num_shards,
        )
        if t0 is not None:
            obs_metrics.observe("upsert.produce_seconds", perf_counter() - t0)
        return slab

    def _fill(self) -> None:
        depth = self._depth if self._executor is not None else 1
        while self._next < self.total and len(self._ready) < depth:
            j = self._next
            self._next += 1
            if self._executor is not None:
                self._ready.append(self._executor.submit(self._compute, j))
            else:
                self._ready.append(self._compute(j))

    # -- consumer ------------------------------------------------------
    @property
    def remaining(self) -> int:
        """Slabs not yet handed out."""
        return self.total - self._emitted

    def peek_time(self) -> float | None:
        """Virtual production time of the next slab (None when drained)."""
        if self._emitted >= self.total:
            return None
        return self.start + self._emitted * self.interval

    def pending(self, now: float) -> list[UpsertSlab]:
        """Pop every slab produced at or before virtual time ``now``.

        Blocks on the compute-ahead future if the slab is due but not
        finished (content is deterministic, so this only costs time).
        """
        due: list[UpsertSlab] = []
        while True:
            t = self.peek_time()
            if t is None or t > now:
                break
            item = self._ready.popleft()
            slab = item.result() if isinstance(item, Future) else item
            due.append(slab)
            self._emitted += 1
            self._fill()
        return due

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut the compute-ahead thread down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SlabUpsertProducer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
