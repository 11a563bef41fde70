"""Compressed Sparse Row (CSR) graph engine.

This is the topology substrate every other subsystem consumes: the frontier
sampler probes degrees and neighbor lists, subgraph induction (Algorithm 2,
line 8 of the paper) extracts a vertex-induced :class:`CSRGraph`, and feature
propagation streams the CSR arrays of the sampled subgraph.

The representation is the classic pair of arrays:

* ``indptr``  -- ``int64[n + 1]``; the neighbors of vertex ``v`` live in
  ``indices[indptr[v]:indptr[v + 1]]``.
* ``indices`` -- ``int32[m]``; column indices (neighbor ids).

Graphs are undirected unless stated otherwise and stored with both edge
directions materialized, which matches the paper's datasets (PPI, Reddit,
Yelp, Amazon are all undirected). All operations are vectorized; nothing in
this module loops per-edge in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRGraph", "edges_to_csr", "induced_subgraph"]

# Vertex ids fit in int32 for every dataset profile in this repo (<= ~2M
# vertices); indptr uses int64 so edge counts can exceed 2^31.
VERTEX_DTYPE = np.int32
INDPTR_DTYPE = np.int64


@dataclass(frozen=True)
class CSRGraph:
    """An immutable undirected graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``.
    indices:
        ``int32`` array of length ``num_edges_directed``; neighbor ids.
        Neighbor lists are sorted ascending within each vertex.
    """

    indptr: np.ndarray
    indices: np.ndarray
    # Cached degree view (indptr diff); computed once in __post_init__.
    _degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=INDPTR_DTYPE)
        indices = np.ascontiguousarray(self.indices, dtype=VERTEX_DTYPE)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if indptr.shape[0] == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
            raise ValueError(
                f"indptr must start at 0 and end at len(indices)={indices.shape[0]}, "
                f"got [{indptr[0]}, {indptr[-1]}]"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.shape[0] - 1
        if indices.shape[0] and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("indices contain out-of-range vertex ids")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        degrees = np.diff(indptr).astype(INDPTR_DTYPE)
        degrees.setflags(write=False)
        object.__setattr__(self, "_degrees", degrees)
        indptr.setflags(write=False)
        indices.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def num_edges_directed(self) -> int:
        """Number of stored (directed) edges; 2x undirected edge count."""
        return self.indices.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (directed count // 2)."""
        return self.indices.shape[0] // 2

    @property
    def degrees(self) -> np.ndarray:
        """Read-only ``int64`` out-degree array of length ``num_vertices``."""
        return self._degrees

    @property
    def average_degree(self) -> float:
        n = self.num_vertices
        return self.num_edges_directed / n if n else 0.0

    def degree(self, v: int) -> int:
        """Number of neighbors of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of ``v``'s neighbor list (no copy)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, avg_degree={self.average_degree:.2f})"
        )

    # ------------------------------------------------------------------
    # Randomized access (sampler hot path)
    # ------------------------------------------------------------------
    def random_neighbor(self, v: int, rng: np.random.Generator) -> int:
        """Uniform random neighbor of ``v``; raises on isolated vertices."""
        start = self.indptr[v]
        deg = self.indptr[v + 1] - start
        if deg == 0:
            raise ValueError(f"vertex {v} has no neighbors")
        return int(self.indices[start + rng.integers(deg)])

    def random_neighbors(self, vs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized uniform neighbor selection, one per vertex in ``vs``.

        All vertices in ``vs`` must have degree >= 1.
        """
        vs = np.asarray(vs)
        starts = self.indptr[vs]
        degs = self.indptr[vs + 1] - starts
        if np.any(degs == 0):
            bad = int(vs[np.argmax(degs == 0)])
            raise ValueError(f"vertex {bad} has no neighbors")
        offsets = rng.integers(0, degs)
        return self.indices[starts + offsets].astype(VERTEX_DTYPE, copy=False)

    # ------------------------------------------------------------------
    # Edge views
    # ------------------------------------------------------------------
    def edge_sources(self) -> np.ndarray:
        """Source vertex of every stored directed edge (``int32[m]``)."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self._degrees
        )

    def edge_list(self) -> np.ndarray:
        """All stored directed edges as an ``(m, 2) int32`` array."""
        return np.column_stack((self.edge_sources(), self.indices))

    def has_edge(self, u: int, v: int) -> bool:
        """True when the directed edge (u, v) is stored (binary search)."""
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.shape[0] and nbrs[i] == v)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertices: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Vertex-induced subgraph (Algorithm 2, line 8).

        Parameters
        ----------
        vertices:
            Vertex ids to keep. Duplicates are removed; order is not
            preserved (the subgraph uses sorted-unique order).

        Returns
        -------
        (subgraph, vertex_map):
            ``subgraph`` relabels vertices to ``0..k-1``; ``vertex_map[i]``
            is the original id of subgraph vertex ``i``.
        """
        return induced_subgraph(self, vertices)

    def is_symmetric(self) -> bool:
        """True when every stored edge (u, v) has its reverse (v, u)."""
        src = self.edge_sources()
        fwd = src.astype(np.int64) * self.num_vertices + self.indices
        bwd = self.indices.astype(np.int64) * self.num_vertices + src
        return bool(np.array_equal(np.sort(fwd), np.sort(bwd)))


def edges_to_csr(
    edges: np.ndarray,
    num_vertices: int,
    *,
    symmetrize: bool = True,
    dedup: bool = True,
    drop_self_loops: bool = False,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an ``(m, 2)`` edge array.

    Parameters
    ----------
    edges:
        Integer array of shape ``(m, 2)``; each row is one edge ``(u, v)``.
    num_vertices:
        Total vertex count ``n`` (isolated vertices are allowed).
    symmetrize:
        When True (default) every edge is stored in both directions.
    dedup:
        When True (default) parallel edges are collapsed.
    drop_self_loops:
        When True rows with ``u == v`` are discarded before building.
    """
    edges = np.asarray(edges)
    if edges.size == 0:
        edges = np.empty((0, 2), dtype=VERTEX_DTYPE)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
    src = edges[:, 0].astype(np.int64, copy=False)
    dst = edges[:, 1].astype(np.int64, copy=False)
    if src.size and (
        src.min() < 0 or dst.min() < 0 or src.max() >= num_vertices or dst.max() >= num_vertices
    ):
        raise ValueError("edge endpoints out of range")
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    # Sort by (src, dst) via a single composite key, then optionally dedup.
    key = src * num_vertices + dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    if dedup and key.size:
        keep = np.empty(key.shape, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    src_sorted = (key // num_vertices).astype(VERTEX_DTYPE)
    dst_sorted = (key % num_vertices).astype(VERTEX_DTYPE)
    counts = np.bincount(src_sorted, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=INDPTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr=indptr, indices=dst_sorted)


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Extract the subgraph induced by ``vertices`` (vectorized).

    Keeps every edge of ``graph`` whose endpoints are both in ``vertices``
    and relabels the kept vertices to ``0..k-1`` in sorted-id order.

    Returns ``(subgraph, vertex_map)`` where ``vertex_map[i]`` is the
    original id of new vertex ``i``.
    """
    vertex_map = np.unique(np.asarray(vertices, dtype=VERTEX_DTYPE))
    if vertex_map.size == 0:
        return (
            CSRGraph(
                indptr=np.zeros(1, dtype=INDPTR_DTYPE),
                indices=np.empty(0, dtype=VERTEX_DTYPE),
            ),
            vertex_map,
        )
    n = graph.num_vertices
    # Dense old->new lookup; -1 marks vertices outside the subgraph. For the
    # subgraph sizes used in training (n_sub << n) this trades O(n) memory
    # for branch-free relabeling of all candidate edges at once.
    lookup = np.full(n, -1, dtype=VERTEX_DTYPE)
    lookup[vertex_map] = np.arange(vertex_map.size, dtype=VERTEX_DTYPE)

    # Gather the concatenated neighbor lists of the kept vertices.
    starts = graph.indptr[vertex_map]
    ends = graph.indptr[vertex_map + 1]
    lengths = ends - starts
    total = int(lengths.sum())
    if total == 0:
        indptr = np.zeros(vertex_map.size + 1, dtype=INDPTR_DTYPE)
        return CSRGraph(indptr=indptr, indices=np.empty(0, dtype=VERTEX_DTYPE)), vertex_map

    # Build a flat gather index covering all neighbor slices without a
    # Python loop: for each kept vertex, indices start..end-1.
    nbrs = graph.indices[_ranges_within(lengths, starts)]
    new_nbrs = lookup[nbrs]
    new_src = np.repeat(np.arange(vertex_map.size, dtype=VERTEX_DTYPE), lengths)
    keep = new_nbrs >= 0
    new_src = new_src[keep]
    new_nbrs = new_nbrs[keep]

    counts = np.bincount(new_src, minlength=vertex_map.size)
    indptr = np.zeros(vertex_map.size + 1, dtype=INDPTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    # Neighbor lists inherit the sorted order of the parent graph after
    # relabeling only if the relabeling is monotone — which it is, because
    # vertex_map is sorted. So new_nbrs within each source slice is sorted.
    return CSRGraph(indptr=indptr, indices=new_nbrs), vertex_map


def _ranges_within(lengths: np.ndarray, starts: np.ndarray | int = 0) -> np.ndarray:
    """``[s0..s0+l0-1, s1..s1+l1-1, ...]`` for the given slice lengths and
    starts (vectorized); with ``starts=0``, ``[0..l0-1, 0..l1-1, ...]``.

    Zero-length slices contribute nothing. One cumsum and one repeat:
    each element is its flat position shifted by its slice's
    ``start - offset``.
    """
    lengths = np.asarray(lengths, dtype=INDPTR_DTYPE)
    ends = lengths.cumsum()
    total = int(ends[-1]) if ends.shape[0] else 0
    shift = ends - lengths - starts
    return np.arange(total, dtype=INDPTR_DTYPE) - shift.repeat(lengths)
