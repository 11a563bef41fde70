"""Tests for sparse aggregation kernels: backends agree, adjoints exact."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import make_dataset
from repro.graphs.csr import edges_to_csr
from repro.propagation.spmm import (
    MeanAggregator,
    full_graph_input,
    input_aggregate_stats,
    spmm_sum_numpy,
    spmm_sum_scipy,
)


class TestSumBackends:
    def test_backends_agree(self, medium_graph, rng):
        h = rng.standard_normal((medium_graph.num_vertices, 9))
        assert np.allclose(
            spmm_sum_numpy(medium_graph, h), spmm_sum_scipy(medium_graph, h)
        )

    def test_matches_dense_oracle(self, clique_ring, rng):
        h = rng.standard_normal((clique_ring.num_vertices, 4))
        dense = np.zeros((clique_ring.num_vertices,) * 2)
        for u, v in clique_ring.edge_list():
            dense[u, v] = 1.0
        assert np.allclose(spmm_sum_numpy(clique_ring, h), dense @ h)

    def test_zero_degree_rows(self, rng):
        g = edges_to_csr(np.array([[0, 1]]), 4)
        h = rng.standard_normal((4, 3))
        out = spmm_sum_numpy(g, h)
        assert np.all(out[2] == 0) and np.all(out[3] == 0)
        assert np.allclose(out[0], h[1])

    def test_empty_graph(self, rng):
        g = edges_to_csr(np.empty((0, 2)), 3)
        h = rng.standard_normal((3, 2))
        assert np.all(spmm_sum_numpy(g, h) == 0)


class TestMeanAggregator:
    def test_mean_of_neighbors(self, star_graph, rng):
        h = rng.standard_normal((6, 3))
        agg = MeanAggregator(star_graph)
        out = agg.forward(h)
        assert np.allclose(out[0], h[1:].mean(axis=0))
        for leaf in range(1, 6):
            assert np.allclose(out[leaf], h[0])

    def test_backends_identical(self, medium_graph, rng):
        h = rng.standard_normal((medium_graph.num_vertices, 5))
        a = MeanAggregator(medium_graph, backend="scipy").forward(h)
        b = MeanAggregator(medium_graph, backend="numpy").forward(h)
        assert np.allclose(a, b)

    def test_unknown_backend(self, star_graph):
        with pytest.raises(ValueError):
            MeanAggregator(star_graph, backend="torch")

    def test_adjoint_dot_product_identity(self, medium_graph, rng):
        """<M x, y> == <x, M^T y> for random x, y — the exact property
        backprop relies on."""
        agg = MeanAggregator(medium_graph)
        x = rng.standard_normal((medium_graph.num_vertices, 4))
        y = rng.standard_normal((medium_graph.num_vertices, 4))
        lhs = float(np.sum(agg.forward(x) * y))
        rhs = float(np.sum(x * agg.backward(y)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_dense_matches_forward(self, clique_ring):
        agg = MeanAggregator(clique_ring)
        m = agg.dense()
        assert np.allclose(m.sum(axis=1), 1.0)  # row-stochastic

    def test_shape_validation(self, star_graph, rng):
        agg = MeanAggregator(star_graph)
        with pytest.raises(ValueError):
            agg.forward(rng.standard_normal((3, 2)))
        with pytest.raises(ValueError):
            agg.backward(rng.standard_normal((3, 2)))

    def test_zero_degree_to_zero(self, rng):
        g = edges_to_csr(np.array([[0, 1]]), 3)
        agg = MeanAggregator(g)
        out = agg.forward(rng.standard_normal((3, 2)))
        assert np.all(out[2] == 0)

    def test_constant_features_fixed_point(self, clique_ring):
        """Mean aggregation preserves constant features (min degree >= 1)."""
        h = np.full((clique_ring.num_vertices, 3), 2.5)
        assert np.allclose(MeanAggregator(clique_ring).forward(h), 2.5)


@pytest.fixture
def ds():
    """A fresh dataset object per test: nothing memoized for it yet."""
    return make_dataset("ppi", scale=0.01, seed=3)


class TestFullGraphInput:
    def test_computed_once_and_equal_to_a_fresh_aggregation(self, ds):
        before = input_aggregate_stats()
        first = full_graph_input(ds, np.float64)
        again = full_graph_input(ds, np.float64)
        after = input_aggregate_stats()
        assert again is first
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        assert first.features is ds.features
        assert np.array_equal(
            first.aggregate, MeanAggregator(ds.graph).forward(ds.features)
        )

    def test_float32_and_float64_entries_coexist(self, ds):
        f64 = full_graph_input(ds, np.float64)
        f32 = full_graph_input(ds, "float32")
        assert f32.features.dtype == f32.aggregate.dtype == np.float32
        assert f64.aggregate.dtype == np.float64
        assert f32.aggregator is f64.aggregator
        assert full_graph_input(ds, np.float64) is f64
        assert full_graph_input(ds, np.float32) is f32
        # cast once, then aggregated in float32 — what a float32 model runs
        assert np.array_equal(
            f32.aggregate,
            MeanAggregator(ds.graph).forward(ds.features.astype(np.float32)),
        )

    def test_arrays_refuse_writes(self, ds):
        entry = full_graph_input(ds, np.float32)
        for array in (ds.features, entry.features, entry.aggregate):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    def test_entry_dies_with_the_dataset(self):
        import gc

        ds = make_dataset("ppi", scale=0.01, seed=3)
        full_graph_input(ds, np.float64)
        live = input_aggregate_stats()["live_entries"]
        del ds
        gc.collect()
        assert input_aggregate_stats()["live_entries"] == live - 1

    def test_obs_counters_track_the_memo(self):
        from repro import obs
        from repro.obs import metrics as obs_metrics

        ds = make_dataset("ppi", scale=0.01, seed=3)
        obs.reset()
        with obs.enabled():
            full_graph_input(ds, np.float64)
            full_graph_input(ds, np.float64)
            full_graph_input(ds, np.float64)
        counters = obs_metrics.snapshot()["counters"]
        assert counters["propagation.input_aggregate.misses"] == 1
        assert counters["propagation.input_aggregate.hits"] == 2
