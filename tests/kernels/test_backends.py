"""Backend registry and the memoized scipy adjacency cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import edges_to_csr
from repro.kernels import backends
from repro.kernels.backends import (
    KernelBackend,
    adjacency_matrix,
    available_backends,
    default_backend,
    get_backend,
    register_backend,
    segment_sum,
)


class TestRegistry:
    def test_builtin_backends_present(self):
        assert "scipy" in available_backends()
        assert "numpy" in available_backends()
        assert default_backend() == "scipy"

    def test_get_backend_none_is_default(self):
        assert get_backend(None) is get_backend(default_backend())

    def test_unknown_backend_raises_with_available_names(self):
        with pytest.raises(ValueError, match="scipy"):
            get_backend("no-such-backend")

    def test_register_roundtrip_and_overwrite_guard(self):
        probe = KernelBackend(
            name="probe",
            gemm=lambda a, b, out: a @ b,
            spmm=lambda g, x, out: x,
        )
        register_backend(probe)
        try:
            assert get_backend("probe") is probe
            with pytest.raises(ValueError, match="already registered"):
                register_backend(probe)
            register_backend(probe, overwrite=True)
        finally:
            backends._REGISTRY.pop("probe", None)


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
        assert key in backends._ADJACENCY_CACHE
        del graph
        import gc

        gc.collect()
        assert key not in backends._ADJACENCY_CACHE

    def test_stats_count_hits_misses_and_live_entries(self):
        graph = edges_to_csr(np.array([[0, 1], [1, 2]]), 3)
        before = backends.adjacency_cache_stats()
        adjacency_matrix(graph)  # miss (fresh graph object)
        adjacency_matrix(graph)  # hit
        adjacency_matrix(graph)  # hit
        after = backends.adjacency_cache_stats()
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

    def test_out_buffer_is_reused(self, rng):
        values = rng.standard_normal((4, 2))
        indptr = np.array([0, 1, 4])
        out = np.full((2, 2), 99.0)
        returned = segment_sum(values, indptr, 2, out=out)
        assert returned is out
        np.testing.assert_allclose(out[1], values[1:].sum(axis=0))


class TestBackendAgreement:
    def test_scipy_and_numpy_spmm_agree(self, medium_graph, rng):
        x = rng.standard_normal((medium_graph.num_vertices, 7))
        scipy_result = get_backend("scipy").spmm(medium_graph, x, None)
        numpy_result = get_backend("numpy").spmm(medium_graph, x, None)
        np.testing.assert_allclose(scipy_result, numpy_result, rtol=1e-12)
