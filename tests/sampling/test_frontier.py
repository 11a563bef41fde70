"""Tests for the serial frontier sampler (Algorithm 2 reference)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import ring_of_cliques
from repro.sampling.frontier import FrontierSampler


class TestValidation:
    def test_frontier_larger_than_graph(self, clique_ring):
        with pytest.raises(ValueError, match="exceeds graph size"):
            FrontierSampler(clique_ring, frontier_size=100, budget=200)

    def test_budget_below_frontier(self, clique_ring):
        with pytest.raises(ValueError, match="budget"):
            FrontierSampler(clique_ring, frontier_size=10, budget=5)

    def test_zero_degree_rejected(self):
        from repro.graphs.csr import edges_to_csr

        g = edges_to_csr(np.array([[0, 1]]), 3)
        with pytest.raises(ValueError, match="min degree"):
            FrontierSampler(g, frontier_size=2, budget=3)

    def test_nonpositive_frontier(self, clique_ring):
        with pytest.raises(ValueError):
            FrontierSampler(clique_ring, frontier_size=0, budget=5)


class TestSampling:
    def test_budget_respected(self, medium_graph, rng):
        s = FrontierSampler(medium_graph, frontier_size=50, budget=200)
        sub = s.sample(rng)
        assert sub.num_vertices <= 200
        assert sub.num_vertices >= 50  # at least the initial frontier

    def test_vertex_map_valid(self, medium_graph, rng):
        s = FrontierSampler(medium_graph, frontier_size=30, budget=100)
        sub = s.sample(rng)
        assert np.all(np.diff(sub.vertex_map) > 0)  # sorted unique
        assert sub.vertex_map.max() < medium_graph.num_vertices

    def test_subgraph_is_induced(self, medium_graph, rng):
        s = FrontierSampler(medium_graph, frontier_size=30, budget=120)
        sub = s.sample(rng)
        # Every subgraph edge maps to an original edge.
        for u in range(min(sub.num_vertices, 30)):
            for v in sub.graph.neighbors(u):
                assert medium_graph.has_edge(
                    int(sub.vertex_map[u]), int(sub.vertex_map[v])
                )

    def test_stats_recorded(self, medium_graph, rng):
        s = FrontierSampler(medium_graph, frontier_size=20, budget=60)
        sub = s.sample(rng)
        assert sub.stats["pops"] == 40
        assert sub.stats["distribution_work"] == 40 * 20

    def test_budget_equals_frontier_no_pops(self, medium_graph, rng):
        s = FrontierSampler(medium_graph, frontier_size=25, budget=25)
        sub = s.sample(rng)
        assert sub.stats["pops"] == 0
        assert sub.num_vertices == 25

    def test_degree_biased_pops(self, rng):
        """Popped vertices are degree-biased: high-degree vertices appear
        in the sample more often than uniform selection would produce."""
        from repro.graphs.csr import edges_to_csr

        # Star-of-stars: one mega-hub (degree 60) + chains.
        edges = [[0, i] for i in range(1, 61)]
        edges += [[i, 60 + i] for i in range(1, 61)]
        g = edges_to_csr(np.array(edges), 121)
        s = FrontierSampler(g, frontier_size=10, budget=30)
        hub_count = 0
        trials = 60
        for i in range(trials):
            sub = s.sample(np.random.default_rng(i))
            if 0 in sub.vertex_map:
                hub_count += 1
        # Uniform 30/121 sampling would include the hub ~25% of the time;
        # degree-proportional frontier sampling nearly always finds it.
        assert hub_count / trials > 0.8

    def test_determinism(self, medium_graph):
        s = FrontierSampler(medium_graph, frontier_size=20, budget=80)
        a = s.sample(np.random.default_rng(3))
        b = s.sample(np.random.default_rng(3))
        assert np.array_equal(a.vertex_map, b.vertex_map)

    def test_connectivity_preservation_vs_uniform(self, rng):
        """Section III-C: frontier samples preserve connectivity better
        than uniform vertex samples of the same size — denser subgraphs
        with a larger connected core."""
        from repro.graphs.stats import largest_component_fraction
        from repro.experiments.ablations import RandomNodeSampler

        g = ring_of_cliques(20, 8)
        frontier = FrontierSampler(g, frontier_size=16, budget=80)
        uniform = RandomNodeSampler(g, budget=80)

        def stats(sampler, seeds):
            degs, fracs = [], []
            for i in seeds:
                sub = sampler.sample(np.random.default_rng(i)).graph
                degs.append(sub.average_degree)
                fracs.append(largest_component_fraction(sub))
            return np.mean(degs), np.mean(fracs)

        f_deg, f_frac = stats(frontier, range(6))
        u_deg, u_frac = stats(uniform, range(6))
        assert f_deg > u_deg
        assert f_frac >= u_frac * 0.9  # at least comparable connectivity
