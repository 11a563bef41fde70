"""Property-based tests for the CSR graph engine (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import edges_to_csr, induced_subgraph


@st.composite
def edge_lists(draw, max_n=30, max_m=80):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestCSRProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_symmetrized_graph_is_symmetric(self, case):
        n, edges = case
        g = edges_to_csr(edges, n, symmetrize=True, dedup=True)
        assert g.is_symmetric()

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_equals_directed_edges(self, case):
        n, edges = case
        g = edges_to_csr(edges, n)
        assert int(g.degrees.sum()) == g.num_edges_directed

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_neighbor_lists_sorted_unique(self, case):
        n, edges = case
        g = edges_to_csr(edges, n, dedup=True)
        for v in range(n):
            nbrs = g.neighbors(v)
            if nbrs.size > 1:
                assert np.all(np.diff(nbrs) > 0)

    @given(edge_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_induced_subgraph_edge_subset(self, case, pyrandom):
        n, edges = case
        g = edges_to_csr(edges, n)
        k = pyrandom.randint(0, n)
        keep = np.array(sorted(pyrandom.sample(range(n), k)), dtype=np.int64)
        sub, vmap = induced_subgraph(g, keep)
        assert np.array_equal(vmap, keep)
        # Every subgraph edge exists in the parent with mapped endpoints.
        src = sub.edge_sources()
        for u, v in zip(src, sub.indices):
            assert g.has_edge(int(vmap[u]), int(vmap[v]))
        # Edge count matches a brute-force filter of the parent edges.
        in_keep = np.zeros(n, dtype=bool)
        in_keep[keep] = True
        parent_src = g.edge_sources()
        expected = int(np.sum(in_keep[parent_src] & in_keep[g.indices]))
        assert sub.num_edges_directed == expected
