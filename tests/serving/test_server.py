"""Tests for the embedding server's event loop and overload handling.

Every test injects a deterministic ``service_model`` so queueing,
shedding and degradation play out on the virtual clock with no
dependence on real machine speed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    ClusterIndex,
    EmbeddingServer,
    QueryTrace,
    ServerConfig,
)
from repro.serving.index import BruteForceIndex, recall_at_k


def burst_trace(num_queries, num_vertices, k=5, gap=1e-6):
    """All requests arrive (nearly) at once — the overload workload."""
    ids = np.arange(num_queries, dtype=np.int64) % num_vertices
    arrivals = np.arange(num_queries, dtype=np.float64) * gap
    return QueryTrace(query_ids=ids, arrivals=arrivals, k=k, skew=0.0)


def paced_trace(ids, k=5, gap=0.01):
    ids = np.asarray(ids, dtype=np.int64)
    arrivals = np.arange(len(ids), dtype=np.float64) * gap
    return QueryTrace(query_ids=ids, arrivals=arrivals, k=k, skew=0.0)


@pytest.fixture
def embeddings(rng):
    return rng.standard_normal((50, 8))


class TestLoadShedding:
    def test_bounded_queue_sheds_past_capacity(self, embeddings):
        # A 10s service time freezes the server after its first batch, so
        # the burst can only land 1 (first singleton batch) + 4 (queue
        # capacity) requests; the other 15 must be shed, not queued.
        server = EmbeddingServer(
            embeddings,
            config=ServerConfig(
                max_batch=4, max_wait=0.0, queue_capacity=4
            ),
            service_model=lambda batch, rows: 10.0,
        )
        replay = server.serve_trace(burst_trace(20, 50))
        m = replay.metrics
        assert m.shed == 15
        assert m.served == 5
        assert m.served + m.shed == 20
        assert replay.batch_stats["shed"] == 15.0

    def test_no_shedding_with_ample_capacity(self, embeddings):
        server = EmbeddingServer(
            embeddings,
            config=ServerConfig(max_batch=4, queue_capacity=100),
            service_model=lambda batch, rows: 1e-3,
        )
        replay = server.serve_trace(burst_trace(20, 50))
        assert replay.metrics.shed == 0
        assert replay.metrics.served == 20
        # The burst coalesces into multi-request batches.
        assert replay.batch_stats["mean_batch_size"] > 1.0

    def test_replay_is_deterministic(self, embeddings):
        def run():
            server = EmbeddingServer(
                embeddings,
                config=ServerConfig(
                    max_batch=4, queue_capacity=8, cache_capacity=64
                ),
                service_model=lambda batch, rows: 5e-3,
            )
            return server.serve_trace(burst_trace(30, 10)).metrics.as_dict()

        assert run() == run()


class TestDeadlineDegradation:
    def make_ann_server(self, deadline):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((400, 8))
        index = ClusterIndex(
            e, num_clusters=16, probes=8, rng=np.random.default_rng(1)
        )
        return EmbeddingServer(
            e,
            config=ServerConfig(
                max_batch=4,
                queue_capacity=1000,
                deadline=deadline,
                min_probes=1,
            ),
            index=index,
            service_model=lambda batch, rows: 1.0,
        )

    def test_late_batches_drop_probes(self):
        server = self.make_ann_server(deadline=0.1)
        replay = server.serve_trace(burst_trace(40, 400))
        m = replay.metrics
        # Every batch after the first starts >= 1s after its head arrived,
        # 10x past the deadline, so probes collapse toward min_probes.
        assert m.degraded_batches >= m.batches - 1 > 0
        assert m.served == 40

    def test_no_deadline_means_no_degradation(self):
        server = self.make_ann_server(deadline=None)
        replay = server.serve_trace(burst_trace(40, 400))
        assert replay.metrics.degraded_batches == 0

    def test_degradation_trades_recall_for_rows(self):
        full = self.make_ann_server(deadline=None)
        degraded = self.make_ann_server(deadline=0.1)
        trace = burst_trace(40, 400, k=10)
        r_full = full.serve_trace(trace, collect_results=True)
        r_deg = degraded.serve_trace(trace, collect_results=True)
        assert (
            r_deg.metrics.rows_scanned < r_full.metrics.rows_scanned
        )


class TestCacheIntegration:
    def test_repeats_hit_after_first_service(self, embeddings):
        server = EmbeddingServer(
            embeddings,
            config=ServerConfig(
                max_batch=4, queue_capacity=32, cache_capacity=64
            ),
            service_model=lambda batch, rows: 1e-4,
        )
        trace = paced_trace([0, 1] * 10, gap=0.01)
        m = server.serve_trace(trace).metrics
        assert m.cache_misses == 2
        assert m.cache_hits == 18
        assert m.hit_rate == pytest.approx(0.9)
        assert m.served == 20 and m.shed == 0

    def test_query_path_uses_cache(self, embeddings):
        server = EmbeddingServer(
            embeddings, config=ServerConfig(cache_capacity=16)
        )
        first = server.query(3, k=5)
        second = server.query(3, k=5)
        assert np.array_equal(first, second)
        assert server.cache.hits == 1
        assert server.cache.misses == 1

    def test_refresh_invalidates_cache_and_rebuilds_index(self):
        # NN of vertex 0 is 1 before the refresh and 2 after.
        before = np.array([[1.0, 0.0], [0.99, 0.14], [0.0, 1.0]])
        after = before[[0, 2, 1]]
        server = EmbeddingServer(
            before, config=ServerConfig(cache_capacity=16)
        )
        assert server.query(0, k=1)[0] == 1
        server.refresh_embeddings(after)
        assert server.refreshes == 1
        assert len(server.cache) == 0
        assert server.query(0, k=1)[0] == 2

    def test_refresh_preserves_index_structure(self, rng):
        e = rng.standard_normal((60, 6))
        server = EmbeddingServer(
            e,
            index="cluster",
            index_kwargs={"num_clusters": 6, "probes": 3},
        )
        server.refresh_embeddings(rng.standard_normal((60, 6)))
        assert isinstance(server.index, ClusterIndex)
        assert server.index.num_clusters == 6
        assert server.index.default_probes == 3

    @pytest.mark.parametrize(
        "kind, kwargs",
        [("brute", {}), ("cluster", {"num_clusters": 6, "probes": 3})],
    )
    def test_refresh_keeps_index_dtype(self, rng, kind, kwargs):
        # A float32 index used to come back float64 from the first
        # refresh: twice the memory and another kernel shape class.
        server = EmbeddingServer(
            rng.standard_normal((60, 6)),
            index=kind,
            index_kwargs={"dtype": np.float32, **kwargs},
        )
        server.refresh_embeddings(rng.standard_normal((60, 6)))
        assert server.index.dtype == np.float32
        # ... and so is the matrix it scans (read through the answers,
        # not through a private attribute of either index class).
        assert server.index.search_ids(np.array([0]), 1)[1].dtype == np.float32
        assert server.refreshes == 1
        if kind == "cluster":
            assert server.index.num_clusters == 6
            assert server.index.default_probes == 3

    def test_refresh_keeps_caller_supplied_cells(self, rng):
        # Cells handed in by the caller (e.g. a graph partition) used to
        # come back as k-means cells after the first refresh.
        e = rng.standard_normal((60, 6))
        cells = np.arange(60) % 5
        server = EmbeddingServer(e, index=ClusterIndex(e, assignments=cells, probes=2))
        fresh = rng.standard_normal((60, 6))
        server.refresh_embeddings(fresh)
        assert np.array_equal(server.index.assignments, cells)
        assert server.index.lloyd_iterations == 0
        want = ClusterIndex(fresh, assignments=cells, probes=2)
        assert np.array_equal(server.index.centroids, want.centroids)
        qids = np.arange(0, 60, 7)
        assert np.array_equal(
            server.index.search_ids(qids, 4)[0], want.search_ids(qids, 4)[0]
        )
        # The cells are per row: another row count cannot keep them, and
        # falling back to k-means would be guessing.
        with pytest.raises(ValueError, match="same 60 rows"):
            server.refresh_embeddings(rng.standard_normal((61, 6)))

    def test_refresh_preserves_kmeans_iters(self, rng):
        server = EmbeddingServer(
            rng.standard_normal((80, 6)),
            index="cluster",
            index_kwargs={"num_clusters": 8, "kmeans_iters": 1},
        )
        assert server.index.lloyd_iterations == 1
        server.refresh_embeddings(rng.standard_normal((80, 6)))
        assert server.index.kmeans_iters == 1
        assert server.index.lloyd_iterations == 1  # capped, unrelated rows or not

    def test_refresh_kmeans_index_with_another_row_count(self, rng):
        server = EmbeddingServer(
            rng.standard_normal((60, 6)),
            index="cluster",
            index_kwargs={"num_clusters": 6, "probes": 6},
        )
        bigger = rng.standard_normal((90, 6))
        server.refresh_embeddings(bigger)
        assert server.index.num_vectors == 90
        assert np.diff(server.index._ptr).min() > 0
        # probes == cells: the refreshed index is an exact scan of the new rows.
        got, _ = server.index.search_ids(np.arange(90), 3)
        want, _ = BruteForceIndex(bigger).search_ids(np.arange(90), 3)
        assert np.array_equal(got, want)
        with pytest.raises(ValueError, match="num_clusters"):
            server.refresh_embeddings(rng.standard_normal((5, 6)))


class TestResultsAndRecall:
    def test_collect_results_matches_exact(self, embeddings):
        server = EmbeddingServer(
            embeddings,
            config=ServerConfig(max_batch=8, queue_capacity=100),
            service_model=lambda batch, rows: 1e-4,
        )
        trace = burst_trace(20, 50, k=5)
        replay = server.serve_trace(trace, collect_results=True)
        assert sorted(replay.results) == list(range(20))
        exact, _ = BruteForceIndex(embeddings).search_ids(
            trace.query_ids, 5
        )
        approx = np.stack([replay.results[i] for i in range(20)])
        assert recall_at_k(approx, exact) == 1.0

    def test_latency_percentiles_ordered(self, embeddings):
        server = EmbeddingServer(
            embeddings,
            config=ServerConfig(max_batch=4, queue_capacity=100),
            service_model=lambda batch, rows: 2e-3,
        )
        m = server.serve_trace(burst_trace(30, 50)).metrics
        row = m.as_dict()
        assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
        assert m.throughput > 0
