"""Tests for the MH-walk and snowball samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.csr import edges_to_csr
from repro.sampling.extra import MetropolisHastingsWalkSampler, SnowballSampler
from repro.sampling.rw import RandomWalkBatchSampler


class TestMetropolisHastings:
    def test_size_bounds(self, medium_graph, rng):
        s = MetropolisHastingsWalkSampler(medium_graph, num_roots=10, walk_length=6)
        sub = s.sample(rng)
        assert 1 <= sub.num_vertices <= 10 * 7

    def test_less_degree_biased_than_simple_walk(self):
        """MH walks visit high-degree hubs less than simple random walks:
        a step from a degree-2 spoke onto the degree-40 hub is accepted
        with probability 1/20, so far fewer subgraphs contain the hub."""
        # Star-of-chains graph: one big hub.
        edges = [[0, i] for i in range(1, 41)]
        edges += [[i, 40 + i] for i in range(1, 41)]
        g = edges_to_csr(np.array(edges), 81)

        def hub_rate(sampler):
            return np.mean(
                [0 in sampler.sample(np.random.default_rng(i)).vertex_map for i in range(20)]
            )

        mh = hub_rate(MetropolisHastingsWalkSampler(g, num_roots=6, walk_length=10))
        rw = hub_rate(RandomWalkBatchSampler(g, num_roots=6, walk_depth=10))
        assert mh < 0.8 < rw

    def test_zero_degree_rejected(self, rng):
        g = edges_to_csr(np.array([[0, 1]]), 3)
        with pytest.raises(ValueError):
            MetropolisHastingsWalkSampler(g, num_roots=2, walk_length=2)

    def test_validation(self, medium_graph):
        with pytest.raises(ValueError):
            MetropolisHastingsWalkSampler(medium_graph, num_roots=0, walk_length=5)


class TestSnowball:
    def test_budget_exact(self, medium_graph, rng):
        sub = SnowballSampler(medium_graph, budget=80).sample(rng)
        assert sub.num_vertices == 80

    def test_fanout_bounds_breadth(self, rng):
        """Tight fanout keeps the sample local: higher clustering than
        uniform node sampling on a clique ring."""
        from repro.graphs.generators import ring_of_cliques
        from repro.sampling.extra import RandomNodeSampler

        g = ring_of_cliques(30, 6)
        snow = SnowballSampler(g, budget=48, num_seeds=2, fanout=3).sample(rng)
        rand = RandomNodeSampler(g, budget=48).sample(rng)
        assert snow.graph.average_degree > rand.graph.average_degree

    def test_reseeds_on_exhaustion(self, rng):
        from repro.graphs.csr import edges_to_csr

        # Two disconnected cliques; snowball must reseed to hit the budget.
        import numpy as np

        edges = [[i, j] for i in range(4) for j in range(i + 1, 4)]
        edges += [[4 + i, 4 + j] for i in range(4) for j in range(i + 1, 4)]
        g = edges_to_csr(np.array(edges), 8)
        sub = SnowballSampler(g, budget=8, num_seeds=1, fanout=2).sample(rng)
        assert sub.num_vertices == 8

    def test_validation(self, medium_graph):
        with pytest.raises(ValueError):
            SnowballSampler(medium_graph, budget=0)
        with pytest.raises(ValueError):
            SnowballSampler(medium_graph, budget=10, fanout=0)
