"""The sharded, replicated ClusterServer: routing, hedging, upserts."""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import metrics as obs_metrics
from repro.serving.cluster import (
    ClusterConfig,
    ClusterServer,
    ShardedIndex,
    partition_vertices,
)
from repro.serving.index import BruteForceIndex, ClusterIndex, l2_normalize_rows, recall_at_k
from repro.serving.upsert import SlabUpsertProducer, drift_refresh
from repro.serving.workload import QueryTrace, zipf_trace


def _embeddings(n=600, d=12, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


def _trace(n=300, vertices=600, rate=2000.0, seed=1):
    return zipf_trace(
        n, vertices, skew=1.1, rate=rate, k=8, rng=np.random.default_rng(seed)
    )


UNIFORM = lambda shard, replica, batch, rows: 1e-4 + 1e-9 * rows  # noqa: E731


def _straggler(slow_replica=1, factor=50.0):
    def model(shard, replica, batch, rows):
        base = 1e-3
        return base * factor if replica == slow_replica else base

    return model


class TestPartitionVertices:
    def test_kmeans_partition_covers_every_vertex(self):
        emb = _embeddings()
        assignment = partition_vertices(
            emb, num_shards=4, rng=np.random.default_rng(0)
        )
        assert assignment.shape == (len(emb),)
        assert assignment.min() >= 0 and assignment.max() < 4



class TestShardedIndexExactness:
    def test_full_fanout_matches_unsharded_brute_force(self):
        emb = _embeddings()
        assignment = partition_vertices(
            emb, num_shards=4, rng=np.random.default_rng(0)
        )
        sharded = ShardedIndex(emb, assignment)
        reference = BruteForceIndex(emb)
        qids = np.arange(0, 600, 7)
        got_ids, got_sims = sharded.search_ids(qids, 10, fanout=4)
        want_ids, want_sims = reference.search_ids(qids, 10)
        assert np.array_equal(got_ids, want_ids)
        assert np.array_equal(got_sims, want_sims)

    def test_pruned_fanout_scans_fewer_rows(self):
        emb = _embeddings()
        assignment = partition_vertices(
            emb, num_shards=4, rng=np.random.default_rng(0)
        )
        sharded = ShardedIndex(emb, assignment)
        qids = np.arange(64)
        sharded.search_ids(qids, 10, fanout=4)
        full_rows = sharded.last_rows_scanned
        sharded.search_ids(qids, 10, fanout=1)
        assert sharded.last_rows_scanned < full_rows

    def test_replace_shard_changes_served_vectors(self):
        emb = _embeddings()
        assignment = partition_vertices(
            emb, num_shards=2, rng=np.random.default_rng(0)
        )
        sharded = ShardedIndex(emb, assignment)
        members = sharded.router.members(0)
        new_rows = _embeddings(seed=9)[: len(members)]
        sharded.replace_shard(0, members, new_rows)
        # The swapped-in shard serves the new rows: the sharded index now
        # matches one built from scratch on the post-upsert matrix.
        rebuilt = emb.copy()
        rebuilt[members] = new_rows
        want = ShardedIndex(rebuilt, assignment)
        qids = np.arange(0, len(emb), 11)
        got_ids, _ = sharded.search_ids(qids, 5, fanout=2)
        want_ids, _ = want.search_ids(qids, 5, fanout=2)
        assert np.array_equal(got_ids, want_ids)


class TestClusterReplay:
    def test_replay_is_deterministic(self):
        emb, trace = _embeddings(), _trace()
        replays = []
        for _ in range(2):
            server = ClusterServer(
                emb,
                config=ClusterConfig(num_shards=4, replicas=2),
                service_model=UNIFORM,
                rng=np.random.default_rng(0),
            )
            replays.append(server.serve_trace(trace, collect_results=True))
        a, b = replays
        assert a.metrics.latency.samples == b.metrics.latency.samples
        assert sorted(a.results) == sorted(b.results)
        for seq in a.results:
            assert np.array_equal(a.results[seq], b.results[seq])

    def test_request_conservation(self):
        emb, trace = _embeddings(), _trace()
        server = ClusterServer(
            emb,
            config=ClusterConfig(num_shards=4, replicas=2),
            service_model=UNIFORM,
            rng=np.random.default_rng(0),
        )
        replay = server.serve_trace(trace)
        m = replay.metrics
        assert m.served + m.shed == len(trace)
        assert m.shed == 0
        assert replay.stats["mean_fanout"] == pytest.approx(2.0)

    def test_results_match_offline_search(self):
        emb, trace = _embeddings(), _trace(n=120)
        server = ClusterServer(
            emb,
            config=ClusterConfig(num_shards=3, replicas=2, fanout=3),
            service_model=UNIFORM,
            rng=np.random.default_rng(0),
        )
        replay = server.serve_trace(trace, collect_results=True)
        reference = BruteForceIndex(emb)
        for seq, ids in replay.results.items():
            want, _ = reference.search_ids(
                np.array([trace.query_ids[seq]]), trace.k
            )
            assert np.array_equal(ids, want[0])

    def test_overload_sheds_and_conserves(self):
        emb = _embeddings()
        trace = _trace(n=400, rate=1e6, seed=2)
        server = ClusterServer(
            emb,
            config=ClusterConfig(
                num_shards=2, replicas=1, fanout=2,
                max_batch=4, queue_capacity=4,
            ),
            service_model=lambda s, r, b, rows: 0.05,
            rng=np.random.default_rng(0),
        )
        replay = server.serve_trace(trace, collect_results=True)
        m = replay.metrics
        assert m.shed > 0
        assert m.served + m.shed == len(trace)
        # Shed queries produce no results; served ones all do.
        assert len(replay.results) == m.served - m.cache_hits or len(
            replay.results
        ) == m.served

    def test_query_convenience_path(self):
        emb = _embeddings()
        server = ClusterServer(
            emb,
            config=ClusterConfig(num_shards=3, replicas=1, cache_capacity=8),
            service_model=UNIFORM,
            rng=np.random.default_rng(0),
        )
        first = server.query(5, k=6)
        again = server.query(5, k=6)
        assert np.array_equal(first, again)
        assert server.cache.hits == 1


class TestHedging:
    def test_hedging_lowers_p99_against_straggler(self):
        emb = _embeddings()
        trace = _trace(n=400, rate=4000.0, seed=3)
        replays = {}
        for hedged in (False, True):
            server = ClusterServer(
                emb,
                config=ClusterConfig(
                    num_shards=4,
                    replicas=2,
                    hedge=hedged,
                    hedge_fallback=0.004,
                    hedge_min_samples=10**9,  # pin the fixed threshold
                ),
                service_model=_straggler(),
                rng=np.random.default_rng(0),
            )
            replays[hedged] = server.serve_trace(trace, collect_results=True)
        p99 = {
            h: r.metrics.latency.percentile(99.0) for h, r in replays.items()
        }
        assert replays[True].stats["hedges"] > 0
        assert replays[True].stats["hedge_wins"] > 0
        assert p99[True] < p99[False]
        # Hedging changes timing, never answers.
        for seq in replays[False].results:
            assert np.array_equal(
                replays[False].results[seq], replays[True].results[seq]
            )

    def test_no_hedge_without_spare_replica(self):
        emb = _embeddings()
        trace = _trace(n=200, seed=4)
        server = ClusterServer(
            emb,
            config=ClusterConfig(
                num_shards=2, replicas=1, hedge=True, hedge_fallback=1e-6,
                hedge_min_samples=10**9,
            ),
            service_model=_straggler(),
            rng=np.random.default_rng(0),
        )
        replay = server.serve_trace(trace)
        assert replay.stats["hedges"] == 0
        assert replay.metrics.served == len(trace)


class TestStreamingUpserts:
    def _server_with_upserts(self, emb, *, rounds=2, interval=0.02, **cfg_kw):
        server = ClusterServer(
            emb,
            config=ClusterConfig(
                num_shards=4, replicas=2, cache_capacity=64, **cfg_kw
            ),
            service_model=UNIFORM,
            rng=np.random.default_rng(0),
        )
        server.upserts = SlabUpsertProducer(
            emb,
            server.sharded.assignment,
            start=0.0,
            interval=interval,
            rounds=rounds,
            seed=11,
        )
        return server

    def test_all_slabs_applied_and_staleness_recorded(self):
        emb = _embeddings()
        trace = _trace(n=400, rate=2000.0, seed=5)
        server = self._server_with_upserts(emb)
        replay = server.serve_trace(trace)
        assert server.upserts_applied == 8
        assert replay.stats["upserts_applied"] == 8
        assert replay.stats["max_staleness_s"] > 0.0
        # Every shard's load stamp advanced to its round-1 slab.
        assert server.shard_loaded_at == [
            pytest.approx(0.02 * (4 + s)) for s in range(4)
        ]

    def test_upsert_bumps_only_own_shard_cache_group(self):
        emb = _embeddings()
        server = self._server_with_upserts(emb, rounds=1, interval=1.0)
        cache = server.cache
        cache.put("a", 1, groups=(0,))
        cache.put("b", 2, groups=(3,))
        # One request at t=0.5: shard 0's slab (produced at t=0) is due
        # before it, shard 1's (t=1.0) and the later ones are not.
        trace = QueryTrace(
            query_ids=np.array([7]), arrivals=np.array([0.5]), k=8, skew=0.0
        )
        replay = server.serve_trace(trace)
        assert replay.stats["upserts_applied"] == 1
        assert server.shard_loaded_at == [0.0, 0.0, 0.0, 0.0]
        assert cache.group_generation(0) == 1
        assert cache.get("a") is None  # shard 0 slab landed at t=0
        assert cache.get("b") == 2

    def test_upserts_bound_staleness(self):
        emb = _embeddings()
        trace = _trace(n=400, rate=1500.0, seed=6)
        with_upserts = self._server_with_upserts(emb, rounds=3, interval=0.01)
        replay = with_upserts.serve_trace(trace)
        without = ClusterServer(
            emb,
            config=ClusterConfig(num_shards=4, replicas=2, cache_capacity=64),
            service_model=UNIFORM,
            rng=np.random.default_rng(0),
        )
        stale_replay = without.serve_trace(trace)
        assert (
            replay.stats["max_staleness_s"]
            < stale_replay.stats["max_staleness_s"]
        )


def _clustered(n=1200, d=16, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n // 40, d))
    return centers[rng.integers(0, centers.shape[0], size=n)] + 0.8 * rng.standard_normal((n, d))


CELLS = dict(num_clusters=12, probes=3)


class TestKMeansShardRefresh:
    """Upserts into k-means shards: refreshed (warm-started Lloyd), not
    rebuilt. The cells differ from a cold build's, so recall against the
    exact scan of the post-upsert matrix is the oracle."""

    def _server(self, emb):
        server = ClusterServer(
            emb,
            config=ClusterConfig(
                num_shards=3, replicas=2, cache_capacity=64, shard_index="cluster"
            ),
            index_kwargs=CELLS,
            service_model=UNIFORM,
            rng=np.random.default_rng(0),
        )
        server.upserts = SlabUpsertProducer(
            emb, server.sharded.assignment, start=0.0, interval=0.02, rounds=2, seed=11
        )
        return server

    def test_replay_beside_upserts_conserves_and_repeats(self):
        emb = _clustered()
        trace = _trace(n=400, vertices=len(emb), rate=2000.0, seed=5)
        first = self._server(emb)
        a = first.serve_trace(trace, collect_results=True)
        b = self._server(emb).serve_trace(trace, collect_results=True)
        assert a.metrics.served + a.metrics.shed == len(trace)
        assert first.upserts_applied == a.stats["upserts_applied"] == 2 * 3
        assert all(ix.lloyd_iterations >= 1 for ix in first.sharded.indexes)
        assert a.results.keys() == b.results.keys()
        assert all(np.array_equal(a.results[s], b.results[s]) for s in a.results)

    @staticmethod
    def _sharded(dtype):
        emb = _clustered()
        assignment = partition_vertices(emb, num_shards=3, rng=np.random.default_rng(0))
        return emb, ShardedIndex(
            emb, assignment, index="cluster", index_kwargs=CELLS, dtype=dtype
        )

    @staticmethod
    def _recalls(sharded, matrix, dtype):
        """recall@10 at fan-out 2 of ``sharded`` and of the same cluster
        rebuilt cold on ``matrix``, against the exact scan."""
        qids = np.arange(0, len(matrix), 3)
        exact, _ = BruteForceIndex(matrix).search_ids(qids, 10)
        cold = ShardedIndex(
            matrix, sharded.assignment, index="cluster", index_kwargs=CELLS, dtype=dtype
        )
        return tuple(
            recall_at_k(ix.search_ids(qids, 10, fanout=2)[0], exact) for ix in (sharded, cold)
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recall_parity_after_drift(self, dtype):
        emb, sharded = self._sharded(dtype)
        current = emb.copy()
        with SlabUpsertProducer(
            emb, sharded.assignment, rounds=3, seed=4, refresh_fn=drift_refresh(0.01)
        ) as producer:
            for slab in producer.pending(np.inf):
                sharded.replace_shard(slab.shard, slab.vertex_ids, slab.vectors)
                current[slab.vertex_ids] = slab.vectors
        refreshed, cold = self._recalls(sharded, current, dtype)
        assert cold > 0.8  # the comparison is not between two broken indexes
        assert abs(refreshed - cold) <= 0.01

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recall_parity_when_the_geometry_is_torn_up(self, dtype):
        # A slab of vectors unrelated to the ones it replaces: the warm
        # start is worth nothing and the refresh degrades to a cold fit.
        emb, sharded = self._sharded(dtype)
        members = sharded.router.members(0)
        current = emb.copy()
        current[members] = _clustered(seed=9)[: len(members)]
        sharded.replace_shard(0, members, current[members])
        assert sharded.indexes[0].lloyd_iterations > 2
        refreshed, cold = self._recalls(sharded, current, dtype)
        assert abs(refreshed - cold) <= 0.02

    def test_warm_start_reseeds_a_centroid_nothing_moved_to(self):
        # Every new row sits in one tight bundle: only the old centroid
        # nearest to it attracts rows, the others must be reseeded.
        index = ClusterIndex(_clustered(n=300), **CELLS)
        rng = np.random.default_rng(2)
        bundle = l2_normalize_rows(np.ones(16) + 0.01 * rng.standard_normal((300, 16)))
        fresh = index.refreshed(bundle)
        assert np.diff(fresh._ptr).min() > 0
        assert fresh.num_clusters == index.num_clusters
        assert fresh.default_probes == index.default_probes


class TestObsIntegration:
    def test_counters_and_histograms_emitted(self):
        emb = _embeddings()
        trace = _trace(n=200, seed=7)
        with obs.enabled():
            obs_metrics.reset()
            server = ClusterServer(
                emb,
                config=ClusterConfig(
                    num_shards=3, replicas=2, cache_capacity=32
                ),
                service_model=UNIFORM,
                rng=np.random.default_rng(0),
            )
            server.serve_trace(trace)
            snap = obs_metrics.snapshot()
        counters, hists = snap["counters"], snap["histograms"]
        assert counters["cluster.requests"] == len(trace)
        assert counters["cluster.served"] == len(trace)
        assert counters["cluster.batches"] > 0
        assert hists["cluster.latency_seconds"]["count"] == len(trace)
        for s in range(3):
            assert f"cluster.shard.{s}.latency_seconds" in hists
        assert hists["cluster.fanout_width"]["count"] > 0
        assert hists["cluster.replica_queue_depth"]["count"] > 0

    def test_disabled_obs_emits_nothing(self):
        emb = _embeddings()
        trace = _trace(n=100, seed=8)
        obs_metrics.reset()
        server = ClusterServer(
            emb,
            config=ClusterConfig(num_shards=2, replicas=1),
            service_model=UNIFORM,
            rng=np.random.default_rng(0),
        )
        server.serve_trace(trace)
        snap = obs_metrics.snapshot()
        assert not snap["counters"]
        assert not snap["histograms"]

    @pytest.mark.parametrize("shard_index, observed", [("cluster", 6), ("brute", 0)])
    def test_upsert_lloyd_iterations_only_where_lloyd_ran(self, shard_index, observed):
        # "Why was this upsert slow": one sample per refresh of a k-means
        # shard; an exact shard runs no Lloyd and leaves no histogram.
        emb = _clustered()
        with obs.enabled():
            obs_metrics.reset()
            server = ClusterServer(
                emb,
                config=ClusterConfig(num_shards=3, replicas=1, shard_index=shard_index),
                index_kwargs=CELLS if shard_index == "cluster" else None,
                service_model=UNIFORM,
                rng=np.random.default_rng(0),
            )
            server.upserts = SlabUpsertProducer(
                emb, server.sharded.assignment, start=0.0, interval=0.02, rounds=2, seed=3
            )
            server.serve_trace(_trace(n=300, vertices=len(emb), rate=2000.0, seed=7))
            snap = obs_metrics.snapshot()
        assert snap["counters"]["cluster.upserts_applied"] == 6
        hist = snap["histograms"].get("cluster.upsert_lloyd_iterations", {"count": 0})
        assert hist["count"] == observed
        if observed:
            assert 1 <= hist["p50"] <= hist["max"] <= 12


@pytest.mark.slow
class TestSoak:
    """Long replays: staleness stays bounded over many refresh rounds."""

    def test_diurnal_soak_keeps_staleness_bounded(self):
        from repro.serving.workload import modulated_trace

        emb = _embeddings(n=1200, d=16, seed=20)
        # A day/night sinusoid from 500 to 5000 qps over a 1 s period, in
        # 24 constant-rate steps.
        phases = (np.arange(24) + 0.5) / 24
        rates = 2750.0 - 2250.0 * np.cos(2.0 * np.pi * phases)
        trace = modulated_trace(
            4000,
            1200,
            segments=tuple((1.0 / 24, float(r)) for r in rates),
            k=8,
            rng=np.random.default_rng(21),
        )
        server = ClusterServer(
            emb,
            config=ClusterConfig(
                num_shards=4, replicas=2, cache_capacity=256,
                queue_capacity=1024,
            ),
            service_model=UNIFORM,
            rng=np.random.default_rng(22),
        )
        rounds = 8
        # Schedule all slabs inside the trace span so every one lands.
        span = float(trace.arrivals[-1] - trace.arrivals[0])
        interval = 0.8 * span / (rounds * 4)
        server.upserts = SlabUpsertProducer(
            emb,
            server.sharded.assignment,
            start=0.0,
            interval=interval,
            rounds=rounds,
            seed=23,
        )
        replay = server.serve_trace(trace)
        assert replay.metrics.served + replay.metrics.shed == len(trace)
        assert replay.stats["upserts_applied"] == rounds * 4
        # Staleness can never exceed one full refresh cycle, or — after
        # the producer drains — the tail time since the *earliest* final
        # round slab (shard 0's, at (rounds-1) * 4 * interval).
        stalest_refresh = (rounds - 1) * 4 * interval
        bound = max(4 * interval, span - stalest_refresh) + 0.1
        assert replay.stats["max_staleness_s"] <= bound

    def test_repeated_refresh_rounds_keep_results_consistent(self):
        """After every slab lands, served answers match offline search
        on the producer's final matrix."""
        emb = _embeddings(n=500, d=8, seed=30)
        server = ClusterServer(
            emb,
            config=ClusterConfig(num_shards=3, replicas=1, fanout=3),
            service_model=UNIFORM,
            rng=np.random.default_rng(31),
        )
        producer = SlabUpsertProducer(
            emb, server.sharded.assignment, start=0.0, interval=0.001,
            rounds=4, seed=32,
        )
        shadow = SlabUpsertProducer(
            emb, server.sharded.assignment, start=0.0, interval=0.001,
            rounds=4, seed=32,
        )
        final = emb.astype(np.float64).copy()
        for slab in shadow.pending(1e9):
            final[slab.vertex_ids] = slab.vectors
        server.upserts = producer
        # All slabs land before the first query arrives.
        trace = zipf_trace(
            150, 500, skew=1.1, rate=100.0, k=6,
            rng=np.random.default_rng(33),
        )
        trace = QueryTrace(
            query_ids=trace.query_ids,
            arrivals=trace.arrivals + 1.0,
            k=trace.k,
            skew=trace.skew,
        )
        replay = server.serve_trace(trace, collect_results=True)
        reference = BruteForceIndex(final)
        for seq, ids in replay.results.items():
            want, _ = reference.search_ids(
                np.array([trace.query_ids[seq]]), trace.k
            )
            assert np.array_equal(ids, want[0])
