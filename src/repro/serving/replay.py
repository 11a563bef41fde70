"""The one discrete-event serving loop.

Both front-ends replay a :class:`~repro.serving.workload.QueryTrace` on
:class:`ReplayLoop`: :class:`~repro.serving.cluster.ClusterServer` with
its shards x replicas, :class:`~repro.serving.server.EmbeddingServer` as
the degenerate topology — one shard, one replica, fan-out 1, no hedge
policy, no slab producer. Arrivals come from the trace's clock; a batch
costs what the index scan measured, or what the front-end's
``service_model`` says (the deterministic mode the tests pin).

There are four typed events with one handler method each —
:class:`Arrival`, :class:`BatchReady`, :class:`HedgeTimer`,
:class:`DueSlabs` (``docs/architecture.md`` tabulates them). At equal
times a ready batch goes first, then a hedge timer, then an arrival;
slabs due at or before an event's time are swapped in before it runs.
The loop keeps its clock in :attr:`ReplayLoop.now` and raises
:class:`ReplayError` if an arrival or a hedge timer is ever scheduled
behind it, or if ``served + shed`` does not add up to the trace. A ready
batch (and the slabs applied on its behalf) may carry an earlier time:
:class:`~repro.serving.batcher.MicroBatcher` dates a batch that filled
inside its ``max_wait`` window from its head request, not from the
request that filled it.

What the front-ends do differently lives in the hook methods at the
bottom of :class:`ReplayLoop`, overridden in a subclass next to each
front-end's own code. The loop never asks which front-end it serves:
routing is skipped because there is one shard, replica choice because
there is one replica, hedging and slabs because there is no policy and
no producer.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..obs import context as obs_context
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..obs.flight import flight_event
from ..obs.trace import span
from .batcher import MicroBatcher
from .metrics import ServingMetrics
from .router import LeastOutstandingDispatcher

__all__ = ["Arrival", "BatchReady", "HedgeTimer", "DueSlabs", "ReplayError", "ReplayLoop"]

_INF = float("inf")
_ONE_SHARD = (0,)
_STATS = (
    "hedges", "hedge_wins", "hedge_dropped", "subqueries", "routed_queries",
    "fanout_total", "upserts_applied", "max_staleness_s",
)


class ReplayError(RuntimeError):
    """The loop broke one of its own invariants (a bug, never load)."""


class Arrival(NamedTuple):
    """Trace request ``seq`` reaches the front door."""

    t: float
    seq: int


class BatchReady(NamedTuple):
    """``replica``'s next micro-batch starts service."""

    t: float
    replica: "Replica"


class HedgeTimer(NamedTuple):
    """The hedge threshold of the timer heap's head dispatch expires."""

    t: float


class DueSlabs(NamedTuple):
    """Upsert slabs are due before the event at ``t``."""

    t: float


class BatchRun(NamedTuple):
    """One executed batch, shared by the dispatches it served: dispatch
    ``d`` reads its candidates at ``ids[d.row]`` / ``sims[d.row]``."""

    t_start: float
    duration: float
    completion: float
    size: int
    rows: int  # index rows scanned
    ids: np.ndarray
    sims: np.ndarray
    data_ts: float  # produced_at of the slab the scan read


@dataclass(eq=False, slots=True)
class Replica:
    """One shard replica: its queue and busy horizon on the replay clock."""

    shard: int
    idx: int
    batcher: MicroBatcher
    busy_until: float = 0.0

    def outstanding(self, now: float) -> int:
        return len(self.batcher) + (1 if self.busy_until > now else 0)


@dataclass(eq=False, slots=True)
class Query:
    """One trace request fanned out over ``shards``; ``ctx`` is its
    :class:`~repro.obs.context.RequestContext` (``None`` with obs off)."""

    qid: int
    seq: int
    arrival: float
    shards: tuple[int, ...]
    ctx: object
    subs: list[SubQuery] = field(init=False)  # one per shard
    pending: int = field(init=False)  # sub-queries not yet resolved
    completion: float = -_INF  # latest resolved sub-query so far
    dead: bool = False  # shed: queued copies are dropped unserved

    def __post_init__(self) -> None:
        self.subs = [SubQuery(self, s) for s in self.shards]
        self.pending = len(self.subs)


@dataclass(eq=False, slots=True)
class SubQuery:
    """The logical (query, shard) unit; dispatched once, or twice when
    hedged. ``winner`` is the copy whose batch completes first so far."""

    query: Query
    shard: int
    dispatches: list[Dispatch] = field(default_factory=list)
    unserviced: int = 0
    winner: Dispatch | None = None
    hedge_pending: bool = False  # an unfired hedge timer exists


@dataclass(eq=False, slots=True)
class Dispatch:
    """One queued copy of a sub-query on one replica. It is what sits in
    the replica's :class:`MicroBatcher`, which reads ``arrival`` only."""

    sub: SubQuery
    replica: Replica
    is_hedge: bool
    arrival: float  # when it was queued
    seq: int
    run: BatchRun | None = None  # set when its batch executes,
    row: int = -1  # with its row in it


class ReplayLoop:
    """One replay of ``trace`` over ``num_shards`` x ``replicas`` queues.

    ``server`` is the front-end: its ``config`` names the batching knobs
    (both server configs spell them alike), its ``cache`` is the result
    cache, and a ``service_model`` on it means batches are priced by
    :meth:`model_seconds`, not measured. The topology defaults to the
    degenerate one. ``hedge`` is a
    :class:`~repro.serving.router.HedgePolicy`, ``upserts`` a
    :class:`~repro.serving.upsert.SlabUpsertProducer`, ``loaded_at[s]``
    when shard ``s``'s data was produced (the front-end's own list).
    """

    prefix = ""  # "serve" | "cluster": names every span, metric, flight event

    def __init__(
        self, server, trace, collect_results: bool, *, num_shards: int = 1,
        replicas: int = 1, hedge=None, upserts=None,
        loaded_at: list[float] | None = None,
    ):
        config = server.config
        self.server = server
        self.query_ids: list[int] = trace.query_ids.tolist()
        self.arrivals: list[float] = trace.arrivals.tolist()
        self.k = trace.k
        self.cursor = 0  # next trace request to arrive
        self.now = -_INF
        self.by_shard = [
            [
                Replica(s, r, MicroBatcher(
                    max_batch=config.max_batch,
                    max_wait=config.max_wait,
                    capacity=config.queue_capacity,
                ))
                for r in range(replicas)
            ]
            for s in range(num_shards)
        ]
        self.replicas = [r for group in self.by_shard for r in group]
        self.cache = server.cache
        self.modeled = server.service_model is not None
        self.hedge = hedge
        self.upserts = upserts
        self.loaded_at = [0.0] * num_shards if loaded_at is None else loaded_at
        self.hedge_heap: list[tuple[float, int, Dispatch]] = []
        self.dispatched = 0  # dispatches queued so far (their seq)
        self.metrics = ServingMetrics()  # end-to-end, per request
        self.shard_metrics = [ServingMetrics() for _ in range(num_shards)]
        self.results: dict[int, np.ndarray] | None = {} if collect_results else None
        self.stats = dict.fromkeys(_STATS, 0.0)  # + "mean_fanout" at the end
        # Obs on: one request-id namespace per replay, one RequestContext
        # per arrival.
        self.tracing = obs_enabled()
        self.id_prefix = f"{obs_context.new_trace_id()}.req" if self.tracing else ""

    # ------------------------------------------------------------------
    # The loop.
    def run(self) -> "ReplayLoop":
        """Process every event; the outcome is left in the fields."""
        p, m = self.prefix, self.metrics
        with span(f"{p}.trace") as sp:
            while (event := self._next_event()) is not None:
                self._advance(event)
                self._handlers[type(event)](self, event)
            self._close()
        if obs_enabled():
            sp.set(requests=len(self.arrivals), served=m.served)
            obs_metrics.inc(f"{p}.requests", len(self.arrivals))
            obs_metrics.inc(f"{p}.served", m.served)
            obs_metrics.inc(f"{p}.shed", m.shed)
            obs_metrics.inc(f"{p}.cache_hits", m.cache_hits)
            obs_metrics.inc(f"{p}.cache_misses", m.cache_misses)
        return self

    def _next_event(self):
        """The earliest pending event, or ``None`` when the replay is
        over. Ties: ready batch, then hedge timer, then arrival."""
        i = self.cursor
        t_arr = self.arrivals[i] if i < len(self.arrivals) else _INF
        t_batch, ready = _INF, None
        for r in self.replicas:
            if len(r.batcher):
                t = r.batcher.ready_time(r.busy_until)
                if t < t_batch:
                    t_batch, ready = t, r
        t_hedge = self.hedge_heap[0][0] if self.hedge_heap else _INF
        if ready is not None and t_batch <= t_hedge and t_batch <= t_arr:
            event = BatchReady(t_batch, ready)
        elif t_hedge <= t_arr:
            if t_hedge == _INF:
                return None
            event = HedgeTimer(t_hedge)
        else:
            event = Arrival(t_arr, i)
        if self.upserts is not None:
            due = self.upserts.peek_time()
            if due is not None and due <= event.t:
                return DueSlabs(event.t)  # `event` is found again after
        return event

    def _advance(self, event) -> None:
        if event.t >= self.now:
            self.now = event.t
        elif isinstance(event, (Arrival, HedgeTimer)):
            raise ReplayError(
                f"{type(event).__name__} at {event.t!r} is behind the "
                f"replay clock {self.now!r}"
            )

    def _close(self) -> None:
        m, stats = self.metrics, self.stats
        m.last_completion = max(m.last_completion, *(r.busy_until for r in self.replicas))
        routed = stats["routed_queries"]
        stats["mean_fanout"] = stats["fanout_total"] / routed if routed else 0.0
        if m.served + m.shed != len(self.arrivals):
            raise ReplayError(
                f"{len(self.arrivals)} requests offered, {m.served} served "
                f"+ {m.shed} shed"
            )

    # ------------------------------------------------------------------
    # Event handlers.
    def _on_arrival(self, event: Arrival) -> None:
        t, seq = event.t, event.seq
        self.cursor = seq + 1
        qid = self.query_ids[seq]
        if seq == 0:  # arrivals are in order: the first is the earliest
            self.metrics.observe_arrival(t)
        ctx = None
        if self.tracing:
            rid = obs_context.new_request_id(self.id_prefix)
            ctx = obs_context.RequestContext(rid, t, qid=qid, k=self.k)
        if self.cache is not None and self._answer_from_cache(qid, seq, t, ctx):
            return
        shards = _ONE_SHARD if len(self.by_shard) == 1 else self.route(qid)
        self.stats["fanout_total"] += len(shards)
        self.stats["routed_queries"] += 1
        query = Query(qid, seq, t, shards, ctx)
        for sub in query.subs:
            group = self.by_shard[sub.shard]
            replica = group[0] if len(group) == 1 else self._pick(group, t)
            primary = self._enqueue(sub, replica, t, is_hedge=False)
            if primary is None:
                query.dead = True
                self.metrics.shed += 1
                if ctx is not None:
                    self.observe_request(query, t, shed=True)
                self._release(query)
                return
            self.stats["subqueries"] += 1
            if self.hedge is not None and len(group) > 1:
                sub.hedge_pending = True
                heapq.heappush(
                    self.hedge_heap,
                    (t + self.hedge.threshold(), primary.seq, primary),
                )

    def _on_batch_ready(self, event: BatchReady) -> None:
        t_start, replica = event
        # Copies of queries shed after they were queued never run, as
        # under a real cancellation signal; a batch of them costs nothing.
        alive = [d for d in replica.batcher.take() if not d.sub.query.dead]
        if not alive:
            return
        shard, size = replica.shard, len(alive)
        qids = np.fromiter(
            (d.sub.query.qid for d in alive), dtype=np.int64, count=size
        )
        lateness = t_start - alive[0].arrival
        with span(f"{self.prefix}.batch") as batch_sp:
            t0 = time.perf_counter()
            ids, sims, rows = self.search(shard, qids, lateness)
            measured = time.perf_counter() - t0
            if obs_enabled():
                batch_sp.set(shard=shard, size=size, rows=rows, lateness=lateness)
                obs_metrics.inc(f"{self.prefix}.batches")
                obs_metrics.inc(f"{self.prefix}.rows_scanned", rows)
                obs_metrics.observe(f"{self.prefix}.batch_size", size)
        duration = (
            self.model_seconds(replica, size, rows) if self.modeled else measured
        )
        run = BatchRun(
            t_start, duration, t_start + duration, size, rows, ids, sims,
            self.loaded_at[shard],
        )
        replica.busy_until = run.completion
        sm = self.shard_metrics[shard]
        sm.batches += 1
        sm.rows_scanned += rows
        sm.service_time_total += duration
        for row, d in enumerate(alive):
            d.run, d.row = run, row
            sub = d.sub
            sub.unserviced -= 1
            if sub.winner is None or run.completion < sub.winner.run.completion:
                sub.winner = d
            self._settle(sub)

    def _on_hedge_timer(self, event: HedgeTimer) -> None:
        t = event.t
        primary = heapq.heappop(self.hedge_heap)[2]
        sub = primary.sub
        sub.hedge_pending = False
        if sub.query.dead:
            return
        if sub.winner is not None and sub.winner.run.completion <= t:
            self._settle(sub)  # answered before the timer: no duplicate
            return
        others = [
            r for r in self.by_shard[sub.shard] if r is not primary.replica
        ]
        queued = self._enqueue(sub, self._pick(others, t), t, is_hedge=True)
        self.stats["hedges" if queued else "hedge_dropped"] += 1
        if self.tracing:
            flight_event(
                f"{self.prefix}.hedge_{'fired' if queued else 'dropped'}",
                shard=sub.shard,
                virtual_t=t,
                request_id=sub.query.ctx.request_id,
                **(self.hedge.describe() if queued else {}),
            )
        if not queued:
            self._settle(sub)

    def _on_due_slabs(self, event: DueSlabs) -> None:
        for slab in self.upserts.pending(event.t):
            index = self.swap_shard(slab)
            if self.cache is not None:
                # Only results that touched this shard go stale.
                self.cache.invalidate(group=slab.shard)
            self.loaded_at[slab.shard] = slab.produced_at
            self.stats["upserts_applied"] += 1
            if obs_enabled():
                obs_metrics.inc(f"{self.prefix}.upserts_applied")
                obs_metrics.observe(
                    f"{self.prefix}.upsert_lag_seconds",
                    max(event.t - slab.produced_at, 0.0),
                )
                # Why was this upsert slow: what the refresh paid in Lloyd
                # iterations (an exact or fixed-cell index ran none).
                if index.lloyd_iterations:
                    obs_metrics.observe(
                        f"{self.prefix}.upsert_lloyd_iterations", index.lloyd_iterations
                    )

    # Plain functions, class-level: bound methods kept on the instance would
    # tie the loop (and the server's indexes) into a cycle only a full GC frees.
    _handlers = {
        Arrival: _on_arrival,
        BatchReady: _on_batch_ready,
        HedgeTimer: _on_hedge_timer,
        DueSlabs: _on_due_slabs,
    }

    # ------------------------------------------------------------------
    # Mechanics shared by the handlers.
    def _answer_from_cache(self, qid: int, seq: int, t: float, ctx) -> bool:
        t0 = time.perf_counter()
        hit = self.cache.get((qid, self.k))
        lookup = time.perf_counter() - t0
        if hit is None:
            self.metrics.cache_misses += 1
            return False
        self.metrics.cache_hits += 1
        cost = 0.0 if self.modeled else lookup
        self.metrics.observe_completion(t, t + cost)
        if ctx is not None:
            ctx.child(f"{self.prefix}.cache_hit", t, t_end=t + cost)
            ctx.finish(t + cost)
            obs_metrics.observe(
                f"{self.prefix}.latency_seconds", cost,
                request_id=ctx.request_id,
            )
        if self.results is not None:
            self.results[seq] = hit
        return True

    @staticmethod
    def _pick(group: Sequence[Replica], now: float) -> Replica:
        return group[LeastOutstandingDispatcher.pick([r.outstanding(now) for r in group])]

    def _enqueue(
        self, sub: SubQuery, replica: Replica, t: float, *, is_hedge: bool
    ) -> Dispatch | None:
        d = Dispatch(sub, replica, is_hedge, t, self.dispatched)
        if not replica.batcher.offer(d):
            return None
        self.dispatched += 1
        sub.dispatches.append(d)
        sub.unserviced += 1
        if self.tracing:
            self.observe_dispatch(replica, t)
        return d

    def _settle(self, sub: SubQuery) -> None:
        """Resolve ``sub`` (and its query, if it was the last) once every
        queued copy has run and no hedge timer is armed; after that
        nothing is left that could call this for it again."""
        if sub.winner is None or sub.unserviced or sub.hedge_pending:
            return
        query, run = sub.query, sub.winner.run
        latency = max(run.completion - query.arrival, 0.0)
        if self.hedge is not None:
            self.hedge.observe(latency)
        self.shard_metrics[sub.shard].observe_completion(
            query.arrival, run.completion
        )
        staleness = max(run.completion - run.data_ts, 0.0)
        if staleness > self.stats["max_staleness_s"]:
            self.stats["max_staleness_s"] = staleness
        if sub.winner.is_hedge:
            self.stats["hedge_wins"] += 1
        if self.tracing:
            self.observe_sub(sub, latency, staleness)
        query.pending -= 1
        if run.completion > query.completion:
            query.completion = run.completion
        if not query.pending and not query.dead:
            self._finalize(query)

    def _finalize(self, query: Query) -> None:
        answer = self.merge(query)
        completion = query.completion
        self.metrics.observe_completion(query.arrival, completion)
        if query.ctx is not None:
            obs_metrics.observe(
                f"{self.prefix}.latency_seconds",
                max(completion - query.arrival, 0.0),
                request_id=query.ctx.request_id,
            )
            self.observe_request(query, completion, shed=False)
        if self.cache is not None:
            self.cache.put((query.qid, self.k), answer, groups=query.shards)
        if self.results is not None:
            self.results[query.seq] = answer
        self._release(query)

    @staticmethod
    def _release(query: Query) -> None:
        """Cut the downward links of a query that has left the loop: its
        records form cycles, and the cyclic collector costs ~1 us a request."""
        for sub in query.subs:
            sub.winner = None
            sub.dispatches.clear()
        query.subs.clear()

    # ------------------------------------------------------------------
    # Front-end hooks. The defaults are the one-shard answers.
    def route(self, qid: int) -> tuple[int, ...]:
        """Shards ``qid`` fans out to (asked only with several shards)."""
        raise NotImplementedError

    def search(self, shard: int, qids: np.ndarray, lateness: float):
        """Scan ``shard`` for ``qids``; ``lateness`` is how long the
        batch's head has waited (what a deadline policy degrades on).
        Returns ``(ids, sims, rows_scanned)``, one candidate row of
        global ids per query. The loop times the call."""
        raise NotImplementedError

    def model_seconds(self, replica: Replica, size: int, rows: int) -> float:
        """The service model's price for one batch (``modeled`` only)."""
        raise NotImplementedError

    def merge(self, query: Query) -> np.ndarray:
        """The request's top-k ids from its sub-queries' candidate rows."""
        raise NotImplementedError

    def swap_shard(self, slab):
        """Load one upsert slab into its shard's index; returns the
        refreshed index."""
        raise NotImplementedError

    def observe_dispatch(self, replica: Replica, t: float) -> None:
        """Obs on: a copy was queued on ``replica``."""

    def observe_sub(self, sub: SubQuery, latency: float, staleness: float) -> None:
        """Obs on: ``sub`` resolved."""

    def observe_request(self, query: Query, t_end: float, *, shed: bool) -> None:
        """Obs on: record ``query``'s leaf spans and finish its context —
        it was answered by ``t_end``, or shed at it."""
        raise NotImplementedError
