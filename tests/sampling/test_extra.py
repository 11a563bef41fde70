"""Tests for the extension samplers (future-work section)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.ablations import (
    ForestFireSampler,
    MetropolisHastingsWalkSampler,
    RandomNodeSampler,
    SnowballSampler,
)


class TestRandomNode:
    def test_exact_budget(self, medium_graph, rng):
        s = RandomNodeSampler(medium_graph, budget=77)
        sub = s.sample(rng)
        assert sub.num_vertices == 77

    def test_no_duplicates(self, medium_graph, rng):
        sub = RandomNodeSampler(medium_graph, budget=50).sample(rng)
        assert np.unique(sub.vertex_map).size == 50

    def test_validation(self, medium_graph):
        with pytest.raises(ValueError):
            RandomNodeSampler(medium_graph, budget=0)
        with pytest.raises(ValueError):
            RandomNodeSampler(medium_graph, budget=medium_graph.num_vertices + 1)


class TestForestFire:
    def test_budget_respected(self, medium_graph, rng):
        sub = ForestFireSampler(medium_graph, budget=90).sample(rng)
        assert sub.num_vertices == 90

    def test_validation(self, medium_graph):
        with pytest.raises(ValueError):
            ForestFireSampler(medium_graph, budget=0)
        with pytest.raises(ValueError):
            ForestFireSampler(medium_graph, budget=medium_graph.num_vertices + 1)

    def test_locality(self, rng):
        """Forest fire burns locally: on a ring of cliques, sampled
        subgraphs are denser than uniform node samples."""
        from repro.graphs.generators import ring_of_cliques

        g = ring_of_cliques(30, 6)
        ff = ForestFireSampler(g, budget=60).sample(rng).graph
        rn = RandomNodeSampler(g, budget=60).sample(rng).graph
        assert ff.average_degree > rn.average_degree


class TestCommonInterface:
    @pytest.mark.parametrize("budget", [16, 64])
    def test_all_samplers_produce_induced_subgraphs(self, medium_graph, rng, budget):
        samplers = [
            RandomNodeSampler(medium_graph, budget=budget),
            ForestFireSampler(medium_graph, budget=budget),
            MetropolisHastingsWalkSampler(
                medium_graph, num_roots=budget // 4, walk_length=3
            ),
            SnowballSampler(medium_graph, budget=budget),
        ]
        for s in samplers:
            sub = s.sample(rng)
            assert np.all(np.diff(sub.vertex_map) > 0)
            # Unmetered: size only, so the pool prices them by it.
            assert sub.stats == {"unique_vertices": float(sub.num_vertices)}
            # Spot-check edge induction.
            for u in range(min(5, sub.num_vertices)):
                for v in sub.graph.neighbors(u):
                    assert medium_graph.has_edge(
                        int(sub.vertex_map[u]), int(sub.vertex_map[v])
                    )
