"""The memoized scipy adjacency cache, the segment sum, and the CSR
kernel held to the numpy oracle."""

from __future__ import annotations

import numpy as np

from repro.graphs import edges_to_csr
from repro.kernels import ops as kernel_ops
from repro.kernels import sparse
from repro.kernels.sparse import adjacency_matrix, segment_sum
from repro.propagation.spmm import spmm_sum_numpy


class TestAdjacencyCache:
    def test_same_object_returned_on_repeat_calls(self, triangle_graph):
        first = adjacency_matrix(triangle_graph)
        second = adjacency_matrix(triangle_graph)
        assert first is second

    def test_one_entry_per_dtype(self, triangle_graph):
        f64 = adjacency_matrix(triangle_graph, np.float64)
        f32 = adjacency_matrix(triangle_graph, np.float32)
        assert f64.dtype == np.float64
        assert f32.dtype == np.float32
        assert adjacency_matrix(triangle_graph, np.float32) is f32
        assert adjacency_matrix(triangle_graph, np.float64) is f64

    def test_matrix_matches_graph_structure(self, path_graph):
        dense = adjacency_matrix(path_graph).toarray()
        expected = np.zeros((4, 4))
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            expected[u, v] = expected[v, u] = 1.0
        np.testing.assert_array_equal(dense, expected)

    def test_cache_evicts_collected_graphs(self):
        graph = edges_to_csr(np.array([[0, 1]]), 2)
        adjacency_matrix(graph)
        key = id(graph)
        assert key in sparse._ADJACENCY_CACHE
        del graph
        import gc

        gc.collect()
        assert key not in sparse._ADJACENCY_CACHE

    def test_stats_count_hits_misses_and_live_entries(self):
        graph = edges_to_csr(np.array([[0, 1], [1, 2]]), 3)
        before = sparse.adjacency_cache_stats()
        adjacency_matrix(graph)  # miss (fresh graph object)
        adjacency_matrix(graph)  # hit
        adjacency_matrix(graph)  # hit
        after = sparse.adjacency_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 2
        assert after["live_entries"] >= 1

    def test_obs_counters_track_the_memo_cache(self):
        from repro import obs
        from repro.obs import metrics as obs_metrics

        graph = edges_to_csr(np.array([[0, 1], [0, 2]]), 3)
        obs.reset()
        with obs.enabled():
            adjacency_matrix(graph)
            adjacency_matrix(graph)
        counters = obs_metrics.snapshot()["counters"]
        assert counters["kernels.adjacency_cache.misses"] == 1
        assert counters["kernels.adjacency_cache.hits"] == 1


class TestSegmentSum:
    def test_matches_manual_sums_with_empty_segments(self, rng):
        values = rng.standard_normal((5, 3))
        indptr = np.array([0, 2, 2, 5])  # segment 1 is empty
        out = segment_sum(values, indptr, 3)
        np.testing.assert_allclose(out[0], values[:2].sum(axis=0))
        np.testing.assert_array_equal(out[1], np.zeros(3))
        np.testing.assert_allclose(out[2], values[2:].sum(axis=0))

    def test_zero_rows_input(self):
        values = np.empty((0, 4))
        indptr = np.zeros(3, dtype=np.int64)
        out = segment_sum(values, indptr, 2)
        assert out.shape == (2, 4)
        assert not out.any()


class TestBackendAgreement:
    def test_scipy_and_numpy_spmm_agree(self, medium_graph, rng):
        x = rng.standard_normal((medium_graph.num_vertices, 7))
        scipy_result = kernel_ops.spmm(medium_graph, x)
        numpy_result = spmm_sum_numpy(medium_graph, x)
        np.testing.assert_allclose(scipy_result, numpy_result, rtol=1e-12)
