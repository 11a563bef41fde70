"""Micro-batching request queue.

A single k-NN query is one GEMV; a micro-batch of ``B`` pending queries
is one GEMM — the same amortization Algorithm 1 gets by building a
complete GCN over a sampled subgraph instead of per-vertex neighborhoods.
The batcher owns the admission queue (bounded — the overload backstop)
and the batch-formation policy (dispatch when full, or when the head
request has waited ``max_wait``).

Time is whatever clock the caller advances — the replay loop runs on a
virtual clock with measured service times, tests drive it with explicit
timestamps. A queued item is whatever the caller offers (the loop queues
its per-replica dispatch records); the batcher reads its ``arrival``
attribute and nothing else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["MicroBatcher"]


@dataclass
class _BatchStats:
    batches: int = 0
    requests: int = 0
    singletons: int = 0
    max_batch_seen: int = 0
    shed: int = 0
    admitted: int = 0

    def as_dict(self) -> dict[str, float]:
        mean = self.requests / self.batches if self.batches else 0.0
        return {
            "batches": float(self.batches),
            "mean_batch_size": mean,
            "singleton_batches": float(self.singletons),
            "max_batch_seen": float(self.max_batch_seen),
            "admitted": float(self.admitted),
            "shed": float(self.shed),
        }


@dataclass
class MicroBatcher:
    """Bounded FIFO queue that coalesces requests into batches.

    ``max_batch`` — dispatch size cap; ``max_wait`` — how long the head
    request may wait for company before a partial batch dispatches;
    ``capacity`` — admission bound (requests offered beyond it are shed).
    """

    max_batch: int = 32
    max_wait: float = 0.0
    capacity: int = 256
    _queue: deque = field(default_factory=deque, repr=False)
    stats: _BatchStats = field(default_factory=_BatchStats, repr=False)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")

    def __len__(self) -> int:
        return len(self._queue)

    def offer(self, request) -> bool:
        """Admit ``request``, or shed it (return ``False``) when full."""
        if len(self._queue) >= self.capacity:
            self.stats.shed += 1
            return False
        self._queue.append(request)
        self.stats.admitted += 1
        return True

    def ready_time(self, busy_until: float) -> float:
        """Earliest time the next batch could start.

        A full batch starts as soon as the server frees; a partial batch
        additionally waits for the head request's ``max_wait`` window.
        Raises if the queue is empty.
        """
        if not self._queue:
            raise ValueError("no pending requests")
        head = self._queue[0]
        if len(self._queue) >= self.max_batch:
            return max(busy_until, head.arrival)
        return max(busy_until, head.arrival + self.max_wait)

    def take(self) -> list:
        """Pop the next batch (up to ``max_batch`` head requests)."""
        batch = []
        while self._queue and len(batch) < self.max_batch:
            batch.append(self._queue.popleft())
        if batch:
            self.stats.batches += 1
            self.stats.requests += len(batch)
            self.stats.singletons += len(batch) == 1
            self.stats.max_batch_seen = max(
                self.stats.max_batch_seen, len(batch)
            )
        return batch
