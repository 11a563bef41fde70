"""Unit tests for the CSR graph engine."""

from __future__ import annotations

import numpy as np
import networkx as nx
import pytest

from repro.graphs.csr import CSRGraph, edges_to_csr, induced_subgraph, _ranges_within


class TestConstruction:
    def test_triangle_basic(self, triangle_graph):
        g = triangle_graph
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.num_edges_directed == 6
        assert g.average_degree == 2.0

    def test_neighbors_sorted(self, triangle_graph):
        for v in range(3):
            nbrs = triangle_graph.neighbors(v)
            assert np.all(np.diff(nbrs) > 0)

    def test_degrees(self, star_graph):
        assert star_graph.degree(0) == 5
        for leaf in range(1, 6):
            assert star_graph.degree(leaf) == 1
        assert np.array_equal(star_graph.degrees, [5, 1, 1, 1, 1, 1])

    def test_isolated_vertices_allowed(self):
        g = edges_to_csr(np.array([[0, 1]]), 4)
        assert g.num_vertices == 4
        assert g.degree(2) == 0
        assert g.neighbors(3).size == 0

    def test_empty_edge_list(self):
        g = edges_to_csr(np.empty((0, 2)), 3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_dedup_parallel_edges(self):
        g = edges_to_csr(np.array([[0, 1], [0, 1], [1, 0]]), 2)
        assert g.num_edges_directed == 2

    def test_keep_parallel_edges_when_requested(self):
        g = edges_to_csr(np.array([[0, 1], [0, 1]]), 2, dedup=False)
        assert g.num_edges_directed == 4

    def test_no_symmetrize(self):
        g = edges_to_csr(np.array([[0, 1]]), 2, symmetrize=False)
        assert g.degree(0) == 1
        assert g.degree(1) == 0
        assert not g.is_symmetric()

    def test_drop_self_loops(self):
        g = edges_to_csr(np.array([[0, 0], [0, 1]]), 2, drop_self_loops=True)
        assert g.num_edges_directed == 2
        assert not g.has_edge(0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            edges_to_csr(np.array([[0, 5]]), 3)
        with pytest.raises(ValueError, match="out of range"):
            edges_to_csr(np.array([[-1, 0]]), 3)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            edges_to_csr(np.array([1, 2, 3]), 3)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([0, 1], dtype=np.int32))
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0], dtype=np.int32))

    def test_indices_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5], dtype=np.int32))

    def test_arrays_read_only(self, triangle_graph):
        with pytest.raises(ValueError):
            triangle_graph.indices[0] = 0
        with pytest.raises(ValueError):
            triangle_graph.indptr[0] = 1


class TestAccessors:
    def test_has_edge(self, path_graph):
        assert path_graph.has_edge(0, 1)
        assert path_graph.has_edge(1, 0)
        assert not path_graph.has_edge(0, 2)
        assert not path_graph.has_edge(0, 3)

    def test_edge_list_roundtrip(self, clique_ring):
        edges = clique_ring.edge_list()
        rebuilt = edges_to_csr(edges, clique_ring.num_vertices, symmetrize=False)
        assert np.array_equal(rebuilt.indptr, clique_ring.indptr)
        assert np.array_equal(rebuilt.indices, clique_ring.indices)

    def test_edge_sources_lengths(self, star_graph):
        src = star_graph.edge_sources()
        assert src.shape[0] == star_graph.num_edges_directed
        assert np.count_nonzero(src == 0) == 5

    def test_len(self, grid5):
        assert len(grid5) == 25

    def test_random_neighbor_valid(self, medium_graph, rng):
        for _ in range(50):
            v = int(rng.integers(medium_graph.num_vertices))
            if medium_graph.degree(v) == 0:
                continue
            u = medium_graph.random_neighbor(v, rng)
            assert medium_graph.has_edge(v, u)

    def test_random_neighbor_isolated_raises(self, rng):
        g = edges_to_csr(np.array([[0, 1]]), 3)
        with pytest.raises(ValueError, match="no neighbors"):
            g.random_neighbor(2, rng)

    def test_random_neighbors_vectorized(self, medium_graph, rng):
        vs = rng.choice(medium_graph.num_vertices, size=100)
        out = medium_graph.random_neighbors(vs, rng)
        assert out.shape == vs.shape
        for v, u in zip(vs, out):
            assert medium_graph.has_edge(int(v), int(u))

    def test_random_neighbors_uniformity(self, star_graph, rng):
        # Center of the star: each of the 5 leaves equally likely.
        draws = star_graph.random_neighbors(np.zeros(5000, dtype=np.int64), rng)
        counts = np.bincount(draws, minlength=6)[1:]
        assert counts.min() > 800  # expectation 1000, generous slack


class TestDerivedGraphs:
    def test_is_symmetric(self, clique_ring):
        assert clique_ring.is_symmetric()

    def test_induced_subgraph_path(self, path_graph):
        sub, vmap = path_graph.induced_subgraph(np.array([0, 1, 3]))
        assert np.array_equal(vmap, [0, 1, 3])
        assert sub.num_vertices == 3
        # Only the 0-1 edge survives; 3 is stranded.
        assert sub.num_edges == 1
        assert sub.has_edge(0, 1)
        assert sub.degree(2) == 0

    def test_induced_subgraph_duplicates_collapsed(self, path_graph):
        sub, vmap = path_graph.induced_subgraph(np.array([1, 1, 2, 2]))
        assert np.array_equal(vmap, [1, 2])
        assert sub.num_edges == 1

    def test_induced_subgraph_empty(self, path_graph):
        sub, vmap = path_graph.induced_subgraph(np.array([], dtype=np.int64))
        assert sub.num_vertices == 0
        assert vmap.size == 0

    def test_induced_subgraph_full_is_identity(self, clique_ring):
        sub, vmap = clique_ring.induced_subgraph(
            np.arange(clique_ring.num_vertices)
        )
        assert np.array_equal(sub.indptr, clique_ring.indptr)
        assert np.array_equal(sub.indices, clique_ring.indices)

    def test_induced_subgraph_vs_networkx(self, medium_graph, rng):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(medium_graph.num_vertices))
        nxg.add_edges_from(map(tuple, medium_graph.edge_list()))
        keep = rng.choice(medium_graph.num_vertices, size=200, replace=False)
        sub, vmap = medium_graph.induced_subgraph(keep)
        nx_sub = nxg.subgraph(keep.tolist())
        assert sub.num_vertices == nx_sub.number_of_nodes()
        assert sub.num_edges == nx_sub.number_of_edges()
        # Spot-check edges map back correctly.
        for u, v in list(nx_sub.edges())[:50]:
            iu = int(np.searchsorted(vmap, u))
            iv = int(np.searchsorted(vmap, v))
            assert sub.has_edge(iu, iv)

    def test_induced_subgraph_preserves_symmetry(self, medium_graph, rng):
        keep = rng.choice(medium_graph.num_vertices, size=150, replace=False)
        sub, _ = induced_subgraph(medium_graph, keep)
        assert sub.is_symmetric()


class TestRangesWithin:
    def test_simple(self):
        out = _ranges_within(np.array([3, 2, 1]))
        assert np.array_equal(out, [0, 1, 2, 0, 1, 0])

    def test_with_zeros(self):
        out = _ranges_within(np.array([0, 2, 0, 3, 0]))
        assert np.array_equal(out, [0, 1, 0, 1, 2])

    def test_all_zeros(self):
        assert _ranges_within(np.array([0, 0])).size == 0

    def test_empty(self):
        assert _ranges_within(np.array([], dtype=np.int64)).size == 0
