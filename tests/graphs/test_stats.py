"""Tests for graph statistics against networkx oracles and known values."""

from __future__ import annotations

import numpy as np
import networkx as nx
import pytest

from repro.graphs.csr import edges_to_csr
from repro.graphs.stats import (
    connected_components,
    connectivity_summary,
    degree_assortativity,
    degree_ks_distance,
    global_clustering_coefficient,
    largest_component_fraction,
)


def to_nx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(map(tuple, graph.edge_list()))
    return g


class TestKSDistance:
    def test_identical_graphs_zero(self, clique_ring):
        assert degree_ks_distance(clique_ring, clique_ring) == 0.0

    def test_star_vs_triangle(self, star_graph, triangle_graph):
        d = degree_ks_distance(star_graph, triangle_graph)
        assert 0.0 < d <= 1.0

    def test_symmetry(self, star_graph, grid5):
        assert degree_ks_distance(star_graph, grid5) == pytest.approx(
            degree_ks_distance(grid5, star_graph)
        )


class TestComponents:
    def test_connected_graph(self, clique_ring):
        comp = connected_components(clique_ring)
        assert np.all(comp == 0)
        assert largest_component_fraction(clique_ring) == 1.0

    def test_two_components(self):
        g = edges_to_csr(np.array([[0, 1], [2, 3]]), 5)
        comp = connected_components(g)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]
        assert len(set(comp.tolist())) == 3  # the isolated vertex 4 too
        assert largest_component_fraction(g) == pytest.approx(2 / 5)

    def test_vs_networkx(self, medium_graph):
        ours = connected_components(medium_graph)
        theirs = list(nx.connected_components(to_nx(medium_graph)))
        assert len(set(ours.tolist())) == len(theirs)
        sizes_ours = sorted(np.bincount(ours).tolist())
        sizes_theirs = sorted(len(c) for c in theirs)
        assert sizes_ours == sizes_theirs


class TestClustering:
    def test_triangle(self, triangle_graph):
        assert global_clustering_coefficient(triangle_graph) == pytest.approx(1.0)

    def test_star_no_triangles(self, star_graph):
        assert global_clustering_coefficient(star_graph) == 0.0

    def test_vs_networkx_transitivity(self, clique_ring, medium_graph):
        for g in (clique_ring, medium_graph):
            assert global_clustering_coefficient(g) == pytest.approx(
                nx.transitivity(to_nx(g)), abs=1e-9
            )


class TestAssortativity:
    def test_vs_networkx(self, medium_graph):
        ours = degree_assortativity(medium_graph)
        theirs = nx.degree_assortativity_coefficient(to_nx(medium_graph))
        assert ours == pytest.approx(theirs, abs=1e-6)

    def test_star_negative(self, star_graph):
        # Hubs connect to leaves only: strongly disassortative.
        assert degree_assortativity(star_graph) < 0.0 or np.isnan(
            degree_assortativity(star_graph)
        ) is False

    def test_regular_graph_zero_variance(self, triangle_graph):
        assert degree_assortativity(triangle_graph) == 0.0


class TestSummary:
    def test_keys_and_values(self, clique_ring):
        s = connectivity_summary(clique_ring)
        assert s["num_vertices"] == 20
        assert s["largest_component_fraction"] == 1.0
        assert 0.0 <= s["global_clustering"] <= 1.0
