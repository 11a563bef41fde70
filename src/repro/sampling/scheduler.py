"""The subgraph pool of Algorithm 5: sampler instances fill, the trainer drains.

Training never waits on one sampler at a time: the paper's scheduler
keeps a pool ``{G_i}`` of pre-sampled subgraphs that independent sampler
instances refill while the optimizer works. :class:`SubgraphPool` is that
pool. ``depth`` subgraphs are in flight ahead of the consumer, produced
by ``workers`` sampler instances — one background thread or a
persistent process pool — in the spirit of GraphVite's pipelined CPU
sampling and GraphSAINT's pre-sampled subgraph pools. ``depth=0`` is the
synchronous case of the same pool: nothing is in flight and
:meth:`SubgraphPool.get` runs the next submission inline.

The thread does not overlap sampling with training.
``tools/prefetch_modes.py`` on a 2-core host (OpenBLAS on one thread,
medians of 3 seeds x 4 rounds of 40 iterations) measured ms per
iteration, inline / thread / two-worker process pool: 15.1 / 17.0 /
10.3 on the ``ppi_small`` recipe and 24.5 / 22.9 / 24.6 on
``amazon_saint_prefetch``, where the thread won on two seeds and lost
on one.

Seeding is a pure function of ``(seed, submission index)``: submission
``i`` always samples from
``default_rng(SeedSequence(seed, spawn_key=(i,)).generate_state(1)[0])``.
``depth`` and ``workers`` therefore change *when* a subgraph is sampled
and never *which* one — synchronous, threaded and multi-process runs of
one seed train on bit-identical subgraph sequences.

The pool keeps no modeled clock: every subgraph carries its sampler's
metered ``stats``, and :mod:`repro.experiments.repricing` prices them
after the run (a fill of :attr:`SubgraphPool.instances` sampler
instances, :func:`repro.sampling.cost.pool_fill_times`).

Observability while subgraphs are in flight (``pipeline.`` prefix,
emitted only when :mod:`repro.obs` is enabled):

* ``pipeline.gets`` / ``pipeline.submitted`` — counters;
* ``pipeline.queue_depth`` — gauge: finished subgraphs ready at the last
  :meth:`~SubgraphPool.get`;
* ``pipeline.consumer_stall_seconds`` — histogram: time the trainer
  blocked waiting for an unfinished subgraph (the quantity the paper
  claims is ~zero when sampling is cheap enough);
* ``pipeline.producer_stall_seconds`` — histogram: time the *oldest
  ready* subgraph sat finished before being consumed while every slot was
  already done (the producers had nothing left to do — the queue bound,
  not sampler speed, was the limit);
* ``pipeline.staleness_seconds`` — histogram: age of each consumed
  subgraph (finish → consume); high staleness with zero consumer stall
  means ``depth`` can be lowered.
"""

from __future__ import annotations

import collections
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..obs.flight import flight_event
from ..obs.trace import span
from .base import GraphSampler, SampledSubgraph

__all__ = ["PrefetchStats", "SubgraphPool"]


@dataclass
class PrefetchStats:
    """Aggregate telemetry of the in-flight window (also exported via obs
    metrics); all zero at ``depth=0``, where nothing is ever in flight."""

    gets: int = 0
    submitted: int = 0
    consumer_stall_seconds: float = 0.0
    producer_stall_seconds: float = 0.0
    staleness_seconds: float = 0.0

    @property
    def mean_staleness(self) -> float:
        return self.staleness_seconds / self.gets if self.gets else 0.0


class _Slot:
    """One in-flight subgraph: its future plus a completion timestamp."""

    __slots__ = ("future", "done_at")

    def __init__(self, future: Future) -> None:
        self.future = future
        self.done_at: float | None = None
        future.add_done_callback(self._mark)

    def _mark(self, _fut: Future) -> None:
        self.done_at = time.perf_counter()


# The sampler of a worker process, set once by the pool initializer so the
# graph is shipped to each worker at pool start, not per submission.
_WORKER_SAMPLER: GraphSampler | None = None


def _init_worker(sampler: GraphSampler) -> None:
    global _WORKER_SAMPLER
    _WORKER_SAMPLER = sampler


def _sample_in_worker(entropy: int) -> SampledSubgraph:
    if _WORKER_SAMPLER is None:
        raise RuntimeError("sampler worker was not initialized")
    return _WORKER_SAMPLER.sample(np.random.default_rng(entropy))


class SubgraphPool:
    """Pool of pre-sampled subgraphs (the ``{G_i}`` set of Algorithm 5).

    Parameters
    ----------
    sampler:
        Any :class:`GraphSampler`; shipped to worker processes once at
        pool start.
    depth:
        Subgraphs kept in flight ahead of the consumer; 0 samples inline
        inside :meth:`get`.
    workers:
        Concurrent sampler instances. At most ``depth`` submissions are
        ever in flight, so the effective count — executor size, and the
        instance count the pricer charges contention for — is
        :attr:`instances` = ``min(workers, max(depth, 1))``: one
        background thread at 1 (in-process sampler, zero pickling), a
        persistent :class:`ProcessPoolExecutor` above.
    seed:
        Root of the deterministic per-submission seed stream.

    Use as a context manager, or call :meth:`close` — a process pool left
    open keeps worker processes alive.
    """

    def __init__(
        self,
        sampler: GraphSampler,
        *,
        depth: int = 0,
        workers: int = 1,
        seed: int = 0,
    ) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.sampler = sampler
        self.depth = depth
        self.instances = min(workers, max(depth, 1))
        self.stats = PrefetchStats()
        self._seed = seed
        self._next = 0  # index of the next submission
        self._closed = False
        self._slots: collections.deque[_Slot] = collections.deque()
        self._executor: Executor | None = None
        if depth > 0:
            if self.instances == 1:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="subgraph-prefetch"
                )
            else:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.instances,
                    initializer=_init_worker,
                    initargs=(sampler,),
                )
            for _ in range(depth):
                self._enqueue()

    # -- producers -----------------------------------------------------
    def _entropy_at(self, index: int) -> int:
        """Entropy of submission ``index`` — stateless, order-independent.

        ``SeedSequence(seed, spawn_key=(index,))`` is bit-identical to the
        ``index``-th child of sequential ``SeedSequence(seed).spawn()``
        (numpy's documented spawn-key construction), but depends only on
        ``(seed, index)``: no shared mutable spawn counter, so two pools
        over different sampler families can never perturb each other's
        streams, and submission ``i`` of a given config draws the same
        subgraph in every thread and process, forever.
        """
        child = np.random.SeedSequence(self._seed, spawn_key=(index,))
        return int(child.generate_state(1)[0])

    def _next_entropy(self) -> int:
        entropy = self._entropy_at(self._next)
        self._next += 1
        return entropy

    def _sample(self, entropy: int) -> SampledSubgraph:
        return self.sampler.sample(np.random.default_rng(entropy))

    def _enqueue(self) -> None:
        entropy = self._next_entropy()
        if self.instances == 1:
            future = self._executor.submit(self._sample, entropy)
        else:
            future = self._executor.submit(_sample_in_worker, entropy)
        self._slots.append(_Slot(future))
        self.stats.submitted += 1

    # -- consumer ------------------------------------------------------
    def ready(self) -> int:
        """Finished (not yet consumed) subgraphs currently in flight."""
        return sum(1 for s in self._slots if s.future.done())

    def get(self) -> SampledSubgraph:
        """Take submission ``i`` (sampled inline at ``depth=0``)."""
        if self._closed:
            raise RuntimeError("pool is closed")
        with span("sampler.pool.get") as sp:
            if self._executor is None:
                sub = self._sample(self._next_entropy())
            else:
                sub = self._take()
            if obs_enabled():
                sp.set(vertices=sub.num_vertices)
        return sub

    def _take(self) -> SampledSubgraph:
        """Take the oldest in-flight subgraph, blocking until it is done.

        Tops the window back up to ``depth`` — also when the sampler
        raised, so its exception reaches the consumer and the next
        :meth:`get` still finds the next submission — and the producers
        keep running while the caller works on the returned subgraph.
        """
        slot = self._slots.popleft()
        all_done = slot.future.done() and all(s.future.done() for s in self._slots)
        t0 = time.perf_counter()
        try:
            sub = slot.future.result()
        finally:
            now = time.perf_counter()
            self._enqueue()
        consumer_stall = now - t0
        staleness = max(0.0, now - slot.done_at) if slot.done_at else 0.0
        # Producer-side stall: every slot was already finished when the
        # consumer arrived — the bounded window idled the producers for (at
        # least) the time the oldest result sat ready.
        producer_stall = staleness if all_done else 0.0

        st = self.stats
        st.gets += 1
        st.consumer_stall_seconds += consumer_stall
        st.producer_stall_seconds += producer_stall
        st.staleness_seconds += staleness
        if obs_enabled():
            obs_metrics.inc("pipeline.gets")
            obs_metrics.inc("pipeline.submitted")
            obs_metrics.set_gauge("pipeline.queue_depth", self.ready())
            obs_metrics.observe("pipeline.consumer_stall_seconds", consumer_stall)
            obs_metrics.observe("pipeline.staleness_seconds", staleness)
            if producer_stall:
                obs_metrics.observe(
                    "pipeline.producer_stall_seconds", producer_stall
                )
                # Producer stalls are exactly the "synchronization
                # wins/regressions" signal later perf PRs hunt for, so
                # they also land in the flight recorder's event ring.
                flight_event(
                    "pipeline.producer_stall",
                    stall_seconds=producer_stall,
                    queue_depth=self.ready(),
                )
        return sub

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Cancel pending work and shut the executor down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            slot.future.cancel()
        self._slots.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SubgraphPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
