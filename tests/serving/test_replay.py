"""The one serving event loop: front-end parity and the loop's invariants."""

from __future__ import annotations

import types

import numpy as np
import pytest

import repro.obs as obs
from repro.obs.trace import get_tracer, walk
from repro.serving.cluster import ClusterConfig, ClusterServer
from repro.serving.replay import ReplayError, ReplayLoop
from repro.serving.server import EmbeddingServer, ServerConfig
from repro.serving.workload import zipf_trace

VERTICES, K = 400, 7


@pytest.fixture(scope="module")
def embeddings():
    return np.random.default_rng(7).standard_normal((VERTICES, 12))


def _trace(n, rate, seed=1):
    return zipf_trace(
        n, VERTICES, skew=1.1, rate=rate, k=K, rng=np.random.default_rng(seed)
    )


def _cost(batch, rows):
    return 1e-3 + 2e-8 * rows


# rate, queue_capacity, cache_capacity: the server sustains ~8k qps.
REGIMES = {
    "under-load": (2000.0, 64, 0),
    "overload-shedding": (40000.0, 16, 0),
    "overload-cache": (40000.0, 16, 64),
    "light-load-cache": (500.0, 64, 64),
}


class TestDegenerateTopologyParity:
    """``EmbeddingServer`` is the cluster with one shard, one replica,
    fan-out 1 — not a second loop that happens to agree with it."""

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_one_shard_cluster_matches_single_server(self, embeddings, regime):
        rate, queue_capacity, cache_capacity = REGIMES[regime]
        trace = _trace(1200, rate)
        knobs = dict(
            max_batch=8, max_wait=1e-4, queue_capacity=queue_capacity,
            cache_capacity=cache_capacity,
        )
        single = EmbeddingServer(
            embeddings, config=ServerConfig(**knobs), service_model=_cost
        ).serve_trace(trace, collect_results=True)
        cluster = ClusterServer(
            embeddings,
            config=ClusterConfig(num_shards=1, replicas=1, fanout=1, **knobs),
            service_model=lambda shard, replica, batch, rows: _cost(batch, rows),
        ).serve_trace(trace, collect_results=True)

        a, b = single.metrics, cluster.metrics
        assert a.latency.samples == b.latency.samples
        assert (a.served, a.shed) == (b.served, b.shed)
        assert (a.cache_hits, a.cache_misses) == (b.cache_hits, b.cache_misses)
        assert a.rows_scanned == cluster.shard_metrics[0].rows_scanned
        assert a.batches == cluster.shard_metrics[0].batches
        assert single.results.keys() == cluster.results.keys()
        for seq, ids in single.results.items():
            assert np.array_equal(ids, cluster.results[seq]), seq
        if regime.startswith("overload"):
            assert a.shed > 0
        if cache_capacity:
            assert a.cache_hits > 0


def _single(embeddings):
    server = EmbeddingServer(
        embeddings,
        config=ServerConfig(max_batch=8, queue_capacity=24, cache_capacity=32),
        service_model=_cost,
    )
    return server, _trace(800, 30000.0, seed=2)


def _cluster(embeddings):
    def straggler(shard, replica, batch, rows):
        return _cost(batch, rows) * (10.0 if replica == 1 else 1.0)

    server = ClusterServer(
        embeddings,
        config=ClusterConfig(
            num_shards=4, replicas=2, fanout=2, max_batch=8, queue_capacity=12,
            cache_capacity=32, hedge=True, hedge_percentile=60.0,
            hedge_min_samples=16, hedge_fallback=2e-3,
        ),
        service_model=straggler,
        rng=np.random.default_rng(0),
    )
    return server, _trace(800, 30000.0, seed=3)


@pytest.mark.parametrize("front_end", [_single, _cluster])
class TestLoopInvariants:
    def test_every_request_leaves_exactly_once(self, embeddings, front_end):
        server, trace = front_end(embeddings)
        with obs.enabled():
            obs.reset()
            replay = server.serve_trace(trace, collect_results=True)
            roots = [r for r in get_tracer().roots if r.name == "request"]
            obs.reset()
        m = replay.metrics
        assert m.shed > 0, "the workload must exercise shedding"
        assert m.served + m.shed == len(trace)
        assert len(replay.results) == m.served
        # One finished request tree per offered request, never two.
        ids = [r.attrs["request_id"] for r in roots]
        assert len(ids) == len(set(ids)) == len(trace)
        assert sum(1 for r in roots if r.attrs.get("shed")) == m.shed
        assert all(r.t_end is not None for r in roots)

    def test_each_answered_sub_request_has_one_winner(self, embeddings, front_end):
        server, trace = front_end(embeddings)
        with obs.enabled():
            obs.reset()
            replay = server.serve_trace(trace)
            roots = [r for r in get_tracer().roots if r.name == "request"]
            obs.reset()
        pairs = 0
        for root in roots:
            if root.attrs.get("shed"):
                continue
            for sp in walk(root):
                copies = [c for c in sp.children if c.name == "cluster.dispatch"]
                if not copies:
                    continue
                assert sum(1 for c in copies if c.attrs.get("winner")) == 1
                assert all(
                    c.attrs.get("winner") or c.attrs.get("lost") for c in copies
                )
                pairs += len(copies) == 2
        if front_end is _cluster:
            assert pairs == replay.stats["hedges"] > 0
        else:  # no sibling replica, no policy: nothing to hedge
            assert replay.stats["hedges"] == 0

    def test_event_times_never_decrease(self, embeddings, front_end, monkeypatch):
        # max_wait is 0 here, so no batch is dated from a head request
        # older than the request that filled it: every event is in order.
        seen = []
        advance = ReplayLoop._advance

        def spy(loop, event):
            seen.append((event.t, type(event).__name__))
            advance(loop, event)

        monkeypatch.setattr(ReplayLoop, "_advance", spy)
        server, trace = front_end(embeddings)
        server.serve_trace(trace)
        times = [t for t, _ in seen]
        assert times == sorted(times)
        assert {"Arrival", "BatchReady"} <= {kind for _, kind in seen}

    def test_arrival_behind_the_clock_raises(self, embeddings, front_end):
        server, _ = front_end(embeddings)
        # QueryTrace refuses unsorted arrivals; the loop must not rely on it.
        bad = types.SimpleNamespace(
            query_ids=np.array([1, 2]), arrivals=np.array([1.0, 0.5]), k=K
        )
        with pytest.raises(ReplayError, match="behind the replay clock"):
            server.serve_trace(bad)

    def test_lost_request_raises(self, embeddings, front_end, monkeypatch):
        monkeypatch.setattr(ReplayLoop, "_finalize", lambda loop, query: None)
        server, trace = front_end(embeddings)
        with pytest.raises(ReplayError, match="requests offered"):
            server.serve_trace(trace)
