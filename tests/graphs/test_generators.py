"""Tests for the synthetic graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import (
    DCSBMParams,
    dcsbm_graph,
    ensure_min_degree,
    grid_graph,
    power_law_weights,
    ring_of_cliques,
)


class TestPowerLawWeights:
    def test_bounds(self, rng):
        w = power_law_weights(5000, 2.5, w_min=1.0, w_max=50.0, rng=rng)
        assert w.min() >= 1.0
        assert w.max() <= 50.0

    def test_heavier_tail_with_smaller_exponent(self, rng):
        w_heavy = power_law_weights(20000, 1.8, w_max=1000.0, rng=rng)
        w_light = power_law_weights(
            20000, 3.5, w_max=1000.0, rng=np.random.default_rng(12345)
        )
        assert w_heavy.mean() > w_light.mean()

    def test_invalid_exponent(self, rng):
        with pytest.raises(ValueError, match="exponent"):
            power_law_weights(10, 1.0, rng=rng)

    def test_invalid_bounds(self, rng):
        with pytest.raises(ValueError, match="w_max"):
            power_law_weights(10, 2.5, w_min=5.0, w_max=1.0, rng=rng)


class TestDCSBMParams:
    def test_valid(self):
        DCSBMParams(num_vertices=100, num_blocks=4, avg_degree=5.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_vertices=0, num_blocks=1, avg_degree=5.0),
            dict(num_vertices=10, num_blocks=20, avg_degree=5.0),
            dict(num_vertices=10, num_blocks=2, avg_degree=-1.0),
            dict(num_vertices=10, num_blocks=2, avg_degree=5.0, mixing=1.5),
            dict(
                num_vertices=10,
                num_blocks=2,
                avg_degree=5.0,
                block_sizes=(3, 3),
            ),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DCSBMParams(**kwargs)


class TestDCSBM:
    def test_basic_properties(self, rng):
        params = DCSBMParams(num_vertices=500, num_blocks=5, avg_degree=10.0)
        graph, blocks = dcsbm_graph(params, rng=rng)
        assert graph.num_vertices == 500
        assert blocks.shape == (500,)
        assert set(np.unique(blocks)) <= set(range(5))
        assert graph.is_symmetric()
        assert not graph.has_edge(0, 0)  # no self-loops anywhere
        src = graph.edge_sources()
        assert not np.any(src == graph.indices)

    def test_average_degree_near_target(self, rng):
        params = DCSBMParams(num_vertices=2000, num_blocks=4, avg_degree=16.0)
        graph, _ = dcsbm_graph(params, rng=rng)
        # Dedup and self-loop removal shave some edges; allow 30% slack.
        assert 0.7 * 16.0 <= graph.average_degree <= 1.1 * 16.0

    def test_min_degree_one(self, rng):
        params = DCSBMParams(num_vertices=400, num_blocks=4, avg_degree=3.0)
        graph, _ = dcsbm_graph(params, rng=rng)
        assert graph.degrees.min() >= 1

    def test_assortative_mixing(self, rng):
        """Low mixing puts most edges within blocks."""
        params = DCSBMParams(
            num_vertices=1000, num_blocks=4, avg_degree=12.0, mixing=0.1
        )
        graph, blocks = dcsbm_graph(params, rng=rng)
        src = graph.edge_sources()
        within = float(np.mean(blocks[src] == blocks[graph.indices]))
        assert within > 0.6

    def test_no_community_signal_when_mixing_one(self, rng):
        params = DCSBMParams(
            num_vertices=1000, num_blocks=4, avg_degree=12.0, mixing=1.0
        )
        graph, blocks = dcsbm_graph(params, rng=rng)
        src = graph.edge_sources()
        within = float(np.mean(blocks[src] == blocks[graph.indices]))
        assert within < 0.45  # ~0.25 expected for 4 equal blocks

    def test_determinism(self):
        params = DCSBMParams(num_vertices=300, num_blocks=3, avg_degree=8.0)
        g1, b1 = dcsbm_graph(params, rng=np.random.default_rng(5))
        g2, b2 = dcsbm_graph(params, rng=np.random.default_rng(5))
        assert np.array_equal(g1.indices, g2.indices)
        assert np.array_equal(b1, b2)

    def test_degree_skew_grows_with_weight_ratio(self, rng):
        lo = DCSBMParams(
            num_vertices=2000, num_blocks=2, avg_degree=15.0, max_weight_ratio=3.0
        )
        hi = DCSBMParams(
            num_vertices=2000,
            num_blocks=2,
            avg_degree=15.0,
            max_weight_ratio=2000.0,
            exponent=2.05,
        )
        g_lo, _ = dcsbm_graph(lo, rng=np.random.default_rng(1))
        g_hi, _ = dcsbm_graph(hi, rng=np.random.default_rng(1))
        assert g_hi.degrees.max() > 2 * g_lo.degrees.max()

    def test_explicit_block_sizes(self, rng):
        params = DCSBMParams(
            num_vertices=100,
            num_blocks=2,
            avg_degree=6.0,
            block_sizes=(30, 70),
        )
        _, blocks = dcsbm_graph(params, rng=rng)
        counts = np.bincount(blocks, minlength=2)
        assert counts[0] == 30 and counts[1] == 70


class TestEnsureMinDegree:
    def test_patches_isolated(self, rng):
        from repro.graphs.csr import edges_to_csr

        g = edges_to_csr(np.array([[0, 1]]), 5)
        patched = ensure_min_degree(g, 1, rng=rng)
        assert patched.degrees.min() >= 1
        assert patched.num_vertices == 5

    def test_noop_when_satisfied(self, clique_ring, rng):
        patched = ensure_min_degree(clique_ring, 1, rng=rng)
        assert patched is clique_ring

    def test_min_degree_two(self, rng):
        from repro.graphs.csr import edges_to_csr

        g = edges_to_csr(np.array([[0, 1], [2, 3]]), 6)
        patched = ensure_min_degree(g, 2, rng=rng)
        assert patched.degrees.min() >= 2


class TestFixtureGraphs:
    def test_ring_of_cliques_structure(self):
        g = ring_of_cliques(3, 4)
        assert g.num_vertices == 12
        # 3 cliques of C(4,2)=6 edges + 3 bridges
        assert g.num_edges == 3 * 6 + 3

    def test_ring_of_two_cliques_single_bridge(self):
        g = ring_of_cliques(2, 3)
        assert g.num_edges == 2 * 3 + 1

    def test_ring_validation(self):
        with pytest.raises(ValueError):
            ring_of_cliques(0, 5)
        with pytest.raises(ValueError):
            ring_of_cliques(3, 1)

    def test_grid_structure(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols
        # Corner has degree 2, center degree 4.
        assert g.degree(0) == 2
        assert g.degree(5) == 4

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            grid_graph(0, 3)
