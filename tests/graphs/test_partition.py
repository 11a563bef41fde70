"""Tests for the vertex partitioners and their gamma_P comparison."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.partition import (
    GREEDY_SLACK,
    bfs_partition,
    greedy_edge_partition,
    random_partition,
)
from repro.propagation.partition_model import gamma_of_partition


@pytest.mark.parametrize(
    "partitioner",
    [random_partition, bfs_partition, greedy_edge_partition],
    ids=["random", "bfs", "greedy"],
)
class TestCommonProperties:
    def test_valid_assignment(self, partitioner, medium_graph, rng):
        parts = 4
        a = partitioner(medium_graph, parts, rng=rng)
        assert a.shape == (medium_graph.num_vertices,)
        assert a.min() >= 0 and a.max() < parts

    def test_rough_balance(self, partitioner, medium_graph, rng):
        parts = 4
        a = partitioner(medium_graph, parts, rng=rng)
        counts = np.bincount(a, minlength=parts)
        n = medium_graph.num_vertices
        assert counts.max() <= 1.4 * n / parts

    def test_validation(self, partitioner, medium_graph, rng):
        with pytest.raises(ValueError):
            partitioner(medium_graph, 0, rng=rng)


class TestGammaOrdering:
    def test_locality_partitioners_reduce_gamma(self, rng):
        """On a locality-friendly graph, BFS and greedy partitions have
        lower source-set expansion than random — yet all stay far above
        1/P, which is Theorem 2's motivation."""
        from repro.graphs.generators import ring_of_cliques

        g = ring_of_cliques(24, 8)
        parts = 4
        gammas = {
            "random": gamma_of_partition(g, random_partition(g, parts, rng=rng)),
            "bfs": gamma_of_partition(g, bfs_partition(g, parts, rng=rng)),
            "greedy": gamma_of_partition(
                g, greedy_edge_partition(g, parts, rng=rng)
            ),
        }
        assert gammas["bfs"] <= gammas["random"]
        assert gammas["greedy"] <= gammas["random"]
        for v in gammas.values():
            assert 1.0 / parts < v <= 1.0

    def test_single_part_gamma_one(self, medium_graph, rng):
        a = greedy_edge_partition(medium_graph, 1, rng=rng)
        assert gamma_of_partition(medium_graph, a) == 1.0


class TestGreedySpecifics:
    def test_slack_validation(self, medium_graph, rng):
        # Capacity scoring holds every part near its GREEDY_SLACK share.
        a = greedy_edge_partition(medium_graph, 4, rng=rng)
        assert np.bincount(a).max() <= GREEDY_SLACK * medium_graph.num_vertices / 4 + 1

    def test_all_vertices_assigned(self, medium_graph, rng):
        a = greedy_edge_partition(medium_graph, 8, rng=rng)
        assert np.all(a >= 0)


class TestBFSSpecifics:
    def test_handles_disconnected(self, rng):
        from repro.graphs.csr import edges_to_csr

        g = edges_to_csr(np.array([[0, 1], [2, 3]]), 6)
        a = bfs_partition(g, 2, rng=rng)
        assert a.shape == (6,)
        assert set(np.unique(a)) <= {0, 1}
