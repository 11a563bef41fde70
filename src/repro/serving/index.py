"""Similarity indexes for embedding serving.

The paper motivates graph embedding with downstream nearest-neighbor
workloads ("content recommendation", Section I). Serving those queries
against a large embedding matrix is a retrieval problem, not a training
problem: a brute-force scan touches all ``n`` rows per query, while a
cluster-pruned index (the classic IVF/cluster-pruning scheme) buckets
vertices by k-means cell and probes only the ``p`` cells whose centroids
are closest to the query — an ``n/c * p`` fraction of the rows for a
controlled recall loss.

Two index types share one search contract:

* :class:`BruteForceIndex` — exact, memory-bounded (query chunking), the
  oracle the approximate index is measured against;
* :class:`ClusterIndex` — spherical k-means cells (or externally supplied
  assignments, e.g. a :mod:`repro.graphs.partition` partition) with a
  tunable ``probes`` knob, the accuracy/latency dial the server's
  deadline-degradation uses.

:func:`recall_at_k` is the standard evaluation: fraction of the exact
top-k recovered by the approximate search.
"""

from __future__ import annotations

import copy

import numpy as np

from ..kernels import ops as kernel_ops

__all__ = [
    "l2_normalize_rows",
    "BruteForceIndex",
    "ClusterIndex",
    "recall_at_k",
    "build_index",
    "merge_topk",
]


def l2_normalize_rows(matrix: np.ndarray, dtype=np.float64) -> np.ndarray:
    """L2-normalize rows (zero rows stay zero).

    ``dtype`` selects the serving precision: float64 is the default
    (exact, matches training output), float32 halves index memory and
    similarity-scan traffic for a last-ulp recall cost.
    """
    matrix = np.asarray(matrix, dtype=dtype)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return np.divide(
        matrix, norms, out=np.zeros_like(matrix), where=norms > 0
    )


def _query_chunks(num_queries: int, chunk_size: int | None) -> list[range]:
    """Split ``range(num_queries)`` into contiguous chunks.

    A trailing chunk of a single row is merged into its predecessor: BLAS
    dispatches 1-row products to a GEMV kernel whose accumulation order
    can differ from the GEMM path, and chunking must not change results.
    """
    if chunk_size is None or chunk_size >= num_queries:
        return [range(num_queries)] if num_queries else []
    chunk_size = max(int(chunk_size), 1)
    bounds = list(range(0, num_queries, chunk_size)) + [num_queries]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1 and chunk_size > 1:
        del bounds[-2]
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _topk_desc(sims: np.ndarray, k: int, *, ranked: bool = True) -> np.ndarray:
    """Columns of each row's ``k`` largest entries, largest first.

    The one top-k of the serving package: negate once, ``argpartition``,
    then ``argsort`` the ``k`` survivors. Tie order is whatever that pair
    of calls leaves — the scheme the original ``cosine_nearest_neighbors``
    used, so every ranking built on it stays where it was.
    ``ranked=False`` stops after the partition: the same ``k`` columns,
    in no particular order.
    """
    neg = -sims
    idx = np.argpartition(neg, kth=k - 1, axis=1)[:, :k]
    if not ranked:
        return idx
    row = np.arange(sims.shape[0])[:, None]
    return idx[row, np.argsort(neg[row, idx], axis=1)]


def _topk_rows(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k (descending) of a similarity block, as ``(columns,
    values)``; ``k`` is clamped to the block's width."""
    idx = _topk_desc(sims, min(k, sims.shape[1]))
    return idx, sims[np.arange(sims.shape[0])[:, None], idx]


def merge_topk(
    candidate_ids,
    candidate_sims,
    k: int,
    *,
    exclude: int | None = None,
    dtype=np.float64,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard candidate lists into one query's global top-``k``.

    ``candidate_ids`` / ``candidate_sims`` are parallel sequences of 1-D
    arrays (global vertex ids and their similarities, one pair per
    shard). Padding entries (``id < 0``) and the optional ``exclude``
    vertex are dropped. Because per-shard similarities are computed as
    independent per-pair reductions (see :class:`BruteForceIndex`), the
    merged ranking over a full fan-out is bit-identical to the unsharded
    scan. Output is padded with ``-1`` / ``-inf`` when fewer than ``k``
    candidates survive.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    idx_out = np.full(k, -1, dtype=np.int64)
    sim_out = np.full(k, -np.inf, dtype=dtype)
    if not len(candidate_ids):
        return idx_out, sim_out
    ids = np.concatenate(candidate_ids, axis=None)
    sims = np.concatenate(candidate_sims, axis=None)
    keep = ids >= 0
    if exclude is not None:
        keep &= ids != exclude
    ids, sims = ids[keep], sims[keep]
    if ids.size:
        kk = min(k, ids.size)
        top = _topk_desc(sims[None, :], kk)[0]
        idx_out[:kk] = ids[top]
        sim_out[:kk] = sims[top]
    return idx_out, sim_out


def recall_at_k(approx_idx: np.ndarray, exact_idx: np.ndarray) -> float:
    """Mean fraction of the exact top-k present in the approximate top-k.

    Rows are queries; ``-1`` entries (padding for queries with fewer than
    ``k`` candidates) are ignored on both sides.
    """
    approx_idx = np.asarray(approx_idx)
    exact_idx = np.asarray(exact_idx)
    if approx_idx.shape[0] != exact_idx.shape[0]:
        raise ValueError("query counts differ")
    if exact_idx.size == 0:
        return 1.0
    scores = []
    for a, e in zip(approx_idx, exact_idx):
        truth = set(int(x) for x in e if x >= 0)
        if not truth:
            continue
        got = set(int(x) for x in a if x >= 0)
        scores.append(len(got & truth) / len(truth))
    return float(np.mean(scores)) if scores else 1.0


class BruteForceIndex:
    """Exact cosine top-k over the full embedding matrix.

    Queries are processed in chunks of ``chunk_size`` rows so the
    intermediate ``(chunk, n)`` similarity block — not ``(B, n)`` — is
    the peak memory cost.
    """

    def __init__(
        self,
        embeddings: np.ndarray,
        *,
        chunk_size: int = 1024,
        dtype=np.float64,
    ):
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.dtype = np.dtype(dtype)
        self._normed = l2_normalize_rows(embeddings, dtype=self.dtype)
        self.chunk_size = chunk_size

    @property
    def num_vectors(self) -> int:
        """Number of indexed rows."""
        return self._normed.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self._normed.shape[1]

    # Cost accounting hook: rows scanned by the last search (the server's
    # service model and the bench report both read it).
    last_rows_scanned: int = 0

    # An exact scan has no cells to fit (what :class:`ClusterIndex` counts).
    lloyd_iterations: int = 0

    def refreshed(self, unit_rows: np.ndarray) -> "BruteForceIndex":
        """A new index of the same structure over new **unit** rows (the
        contract :meth:`ClusterIndex.refreshed` shares). The index takes
        ownership of ``unit_rows``: it keeps the array, not a copy."""
        new = copy.copy(self)
        new._normed = np.asarray(unit_rows, dtype=self.dtype)
        new.last_rows_scanned = 0
        return new

    def search(
        self,
        query_vecs: np.ndarray,
        k: int,
        *,
        exclude: np.ndarray | None = None,
        probes: int | None = None,
        normalized: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` cosine neighbors of each query vector.

        ``exclude[i]`` (optional) is a vertex id masked out of query
        ``i``'s candidates — self-exclusion for query-by-vertex.
        ``probes`` is accepted (and ignored) so both index types can be
        driven through one call signature. ``normalized`` skips query
        normalization when the caller guarantees unit rows (the
        query-by-id path — renormalizing would perturb the last ulp).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query_vecs = np.atleast_2d(np.asarray(query_vecs, dtype=self.dtype))
        qn = query_vecs if normalized else l2_normalize_rows(query_vecs, dtype=self.dtype)
        num_q = qn.shape[0]
        k = min(k, self.num_vectors - (1 if exclude is not None else 0))
        k = max(k, 1)
        idx_out = np.empty((num_q, k), dtype=np.int64)
        sim_out = np.empty((num_q, k), dtype=self.dtype)
        for chunk in _query_chunks(num_q, self.chunk_size):
            rows = slice(chunk.start, chunk.stop)
            sims = kernel_ops.gemm(qn[rows], self._normed.T)
            if exclude is not None:
                sims[
                    np.arange(chunk.stop - chunk.start),
                    np.asarray(exclude)[rows],
                ] = -np.inf
            idx, scanned = _topk_rows(sims, k)
            # Recompute the returned similarities as independent per-pair
            # dots: unlike the GEMM block (whose accumulation order — and
            # last ulp — depends on the chunk's row count), each pair's
            # reduction is fixed, so results are bit-identical under any
            # chunking.
            sim = np.einsum("qd,qkd->qk", qn[rows], self._normed[idx])
            if exclude is not None:
                # An excluded row that still made the top-k (a one-row
                # index has nothing else) is padding, not an answer.
                hole = scanned == -np.inf
                idx[hole], sim[hole] = -1, -np.inf
            idx_out[rows], sim_out[rows] = idx, sim
        self.last_rows_scanned = num_q * self.num_vectors
        return idx_out, sim_out

    def search_ids(
        self, query_ids: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` neighbors of indexed vertices, excluding themselves."""
        query_ids = np.asarray(query_ids, dtype=np.int64).ravel()
        return self.search(
            self._normed[query_ids], k, exclude=query_ids, normalized=True
        )


def _cell_layout(
    assignments: np.ndarray, num_cells: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows grouped by cell: ``(order, ptr)`` of one stable sort.

    ``order[ptr[c]:ptr[c + 1]]`` are cell ``c``'s row ids, ascending —
    the CSR layout of the assignment, and the order a boolean mask
    ``assignments == c`` would select them in.
    """
    order = np.argsort(assignments, kind="stable")
    ptr = np.zeros(num_cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(assignments, minlength=num_cells), out=ptr[1:])
    return order, ptr


def _spherical_kmeans(
    normed: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator | None,
    iters: int = 12,
    init: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Lloyd's iterations with cosine assignment on unit vectors.

    Returns ``(centroids, assignments, iterations run)``. Seeded from
    ``num_clusters`` rows drawn by ``rng`` — or from ``init`` centroids
    (the warm start of :meth:`ClusterIndex.refreshed`; ``rng`` is then
    not consulted). Empty clusters are reseeded to the point currently
    worst-served by its centroid. Each iteration sorts the rows by cell
    once; a centroid is the mean over one contiguous segment of that
    order.

    A warm start stops at its fixed point, under the ``iters`` cap:
    without a reseed the centroids are a pure function of the
    assignments, so once an iteration's arg-max repeats the previous
    one's every later iteration would repeat it too — stopping there
    returns the same bits as running all ``iters``. A far start pays up
    to ``iters``; a start at the answer pays two (one pass to assign, one
    to see it repeat). A cold start always pays ``iters``: what a build
    costs stays a function of the shape, not of how soon this draw of
    rows happens to settle (8 to 12 iterations from one trained model to
    the next on a 1 864 x 256 corpus).
    """
    n = normed.shape[0]
    if init is None:
        centroids = normed[rng.choice(n, size=num_clusters, replace=False)].copy()
    else:
        centroids = np.array(init, dtype=normed.dtype)
    assignments = np.zeros(n, dtype=np.int64)
    argmax = None  # the previous iteration's, before any reseed moved a row
    ran = 0
    for ran in range(1, iters + 1):
        sims = kernel_ops.gemm(normed, centroids.T)
        previous, argmax = argmax, sims.argmax(axis=1)
        assignments = argmax
        best = None  # each row's similarity to its cell; only a reseed reads it
        order, ptr = _cell_layout(assignments, num_clusters)
        for c in range(num_clusters):
            # One cell's rows at a time: the gathered block is still in
            # cache when the mean reads it.
            members = normed.take(order[ptr[c] : ptr[c + 1]], axis=0)
            if members.shape[0] == 0:
                if best is None:
                    best = sims[np.arange(n), argmax]
                    assignments = argmax.copy()  # `argmax` stays as computed
                worst = int(np.argmin(best))
                home = assignments[worst]
                centroids[c] = normed[worst]
                assignments[worst] = c
                best[worst] = 1.0
                if home > c:  # a cell still to come lost a row
                    order, ptr = _cell_layout(assignments, num_clusters)
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            centroids[c] = mean / norm if norm > 0 else members[0]
        # A reseed reads `best`, which depends on the centroids the
        # iteration started from: only a reseed-free repeat is a fixed point.
        warm_repeat = init is not None and previous is not None and best is None
        if warm_repeat and np.array_equal(argmax, previous):
            break
    return centroids, assignments, ran


class ClusterIndex:
    """Cluster-pruned approximate index (IVF over k-means cells).

    Search ranks the ``num_clusters`` centroids against the query and
    scans only the members of the top-``probes`` cells. ``probes`` is the
    recall/latency dial: ``probes == num_clusters`` degenerates to an
    exact scan (plus the centroid pass).

    Rows are stored cell-contiguously, the way a Dashboard vertex owns
    contiguous entries (Section IV-B): ``_slab[_ptr[c]:_ptr[c + 1]]`` are
    cell ``c``'s unit rows, ``_order`` their vertex ids (ascending inside
    a cell) and ``_slot`` the inverse permutation. Scanning a cell is a
    GEMM on a slab view, with no gather.

    New embeddings do not need a new index: :meth:`refreshed` keeps the
    structure and re-fits the cells from where they are, the way a
    Dashboard pop invalidates and appends in place instead of rebuilding
    the table. ``lloyd_iterations`` is what the build (or the refresh)
    paid: Lloyd iterations run, 0 over caller-supplied ``assignments``.
    """

    def __init__(
        self,
        embeddings: np.ndarray,
        *,
        num_clusters: int | None = None,
        probes: int = 4,
        assignments: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        kmeans_iters: int = 12,
        dtype=np.float64,
    ):
        self.dtype = np.dtype(dtype)
        normed = l2_normalize_rows(embeddings, dtype=self.dtype)
        n = normed.shape[0]
        if n == 0:
            raise ValueError("cannot index an empty embedding matrix")
        self.kmeans_iters = kmeans_iters
        self._external_cells = assignments is not None
        self.lloyd_iterations = 0
        centroids = None
        if assignments is not None:
            assignments = np.asarray(assignments, dtype=np.int64).ravel()
            if assignments.shape[0] != n:
                raise ValueError("assignments length != number of rows")
            num_clusters = int(assignments.max()) + 1
        else:
            if num_clusters is None:
                num_clusters = max(1, min(n, int(round(np.sqrt(n)))))
            if not 1 <= num_clusters <= n:
                raise ValueError("num_clusters must be in [1, n]")
            rng = rng or np.random.default_rng(0)
            centroids, assignments, self.lloyd_iterations = _spherical_kmeans(
                normed, num_clusters, rng, iters=kmeans_iters
            )
        self.num_clusters = num_clusters
        self.default_probes = int(np.clip(probes, 1, num_clusters))
        self._lay_out(normed, assignments, centroids)

    def _lay_out(
        self, normed: np.ndarray, assignments: np.ndarray, centroids: np.ndarray | None
    ) -> None:
        """Store unit rows cell by cell; ``centroids=None`` takes the
        cells' normalised means (empty cells keep a zero centroid)."""
        n = normed.shape[0]
        self._order, self._ptr = _cell_layout(assignments, self.num_clusters)
        self._cell_lo, self._cell_len = self._ptr[:-1], np.diff(self._ptr)
        self._slab = normed[self._order]
        self._slot = np.empty(n, dtype=np.int64)
        self._slot[self._order] = np.arange(n)
        if centroids is None:
            centroids = np.zeros((self.num_clusters, normed.shape[1]), dtype=self.dtype)
            for c in np.flatnonzero(self._cell_len):
                centroids[c] = self._slab[self._ptr[c] : self._ptr[c + 1]].mean(axis=0)
            centroids = l2_normalize_rows(centroids, dtype=self.dtype)
        self.centroids = centroids
        self.assignments = assignments
        self.last_rows_scanned = 0

    def refreshed(self, unit_rows: np.ndarray) -> "ClusterIndex":
        """A new index of the same structure over new **unit** rows.

        K-means cells are refreshed, not rebuilt: Lloyd warm-started from
        this index's centroids and run to its fixed point, at most
        ``kmeans_iters`` iterations — two when the rows barely moved, the
        cold cost when they are unrelated to the old ones, so the price
        follows the drift. The cells differ from what a cold
        build over the same rows would draw (recall is the oracle, and is
        tested to match). Caller-supplied cells are kept as they are and
        only their centroids recomputed, which needs the same row count.
        Under the shared contract the index takes ownership of
        ``unit_rows`` (this class happens to copy them into its slab;
        :class:`BruteForceIndex` keeps the array).
        """
        unit_rows = np.asarray(unit_rows, dtype=self.dtype)
        n = unit_rows.shape[0]
        new = copy.copy(self)  # structure carried over; _lay_out rebinds every array
        if self._external_cells:
            if n != self.num_vectors:
                raise ValueError(
                    "an index over caller-supplied assignments can only be "
                    f"refreshed with the same {self.num_vectors} rows, got {n}"
                )
            new._lay_out(unit_rows, self.assignments, None)
        else:
            if n < self.num_clusters:
                raise ValueError("num_clusters must be in [1, n]")
            centroids, assignments, new.lloyd_iterations = _spherical_kmeans(
                unit_rows, self.num_clusters, None,
                iters=self.kmeans_iters, init=self.centroids,
            )
            new._lay_out(unit_rows, assignments, centroids)
        return new

    @property
    def num_vectors(self) -> int:
        """Number of indexed rows."""
        return self._slab.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality."""
        return self._slab.shape[1]

    def search(
        self,
        query_vecs: np.ndarray,
        k: int,
        *,
        probes: int | None = None,
        exclude: np.ndarray | None = None,
        normalized: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probed top-``k``: scan members of the ``probes`` nearest cells.

        One matmul per *probed cell* over all queries probing it, so a
        micro-batch of queries amortizes the cell scans the same way
        Algorithm 1 amortizes aggregation over a sampled subgraph; then
        one top-``k`` per *batch* over a ``(queries, width)`` candidate
        buffer. Queries with fewer than ``k`` candidates pad ``indices``
        with ``-1`` and ``similarities`` with ``-inf``.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if probes is None:
            probes = self.default_probes
        elif probes < 1:
            raise ValueError("probes must be >= 1")
        query_vecs = np.atleast_2d(np.asarray(query_vecs, dtype=self.dtype))
        qn = query_vecs if normalized else l2_normalize_rows(query_vecs, dtype=self.dtype)
        num_q = qn.shape[0]
        p = min(int(probes), self.num_clusters)
        cent_sims = kernel_ops.gemm(qn, self.centroids.T)
        if p < self.num_clusters:
            probe_sets = _topk_desc(cent_sims, p, ranked=False)
            probe_sets.sort(axis=1)
        else:
            probe_sets = np.tile(np.arange(self.num_clusters), (num_q, 1))
        # A query's candidates sit side by side in its buffer row, cell
        # after cell in ascending cell order: columns starts..ends of a
        # probed cell are ascending slab rows, column + shift = slab row.
        lens = self._cell_len[probe_sets]
        cell_lo = self._cell_lo[probe_sets]
        ends = np.cumsum(lens, axis=1)
        starts = ends - lens
        shift = cell_lo - starts
        width = int(ends[:, -1].max(initial=1))
        self.last_rows_scanned = scanned = int(ends[:, -1].sum())
        if num_q == 1:
            # Its probed cells are sorted, so one query's pairs are already
            # grouped by cell *and* in buffer order: the blocks side by
            # side are the buffer row, with nothing to sort or scatter.
            bounds = zip(cell_lo[0].tolist(), (cell_lo[0] + lens[0]).tolist())
            blocks = [kernel_ops.gemm(qn, self._slab[lo:hi].T) for lo, hi in bounds if lo < hi]
            if not blocks:  # every probed cell is empty: width is 1
                blocks = [np.full((1, width), -np.inf, dtype=self.dtype)]
            cand = np.concatenate(blocks, axis=1)
        else:
            # One sort groups the (query, cell) pairs by cell, queries
            # ascending inside a cell: one gemm per probed cell.
            by_cell = np.argsort(probe_sets, axis=None, kind="stable")
            pair_q = by_cell // p
            pair_cell = probe_sets.ravel()[by_cell]
            first = np.flatnonzero(np.diff(pair_cell, prepend=-1))  # pair of each cell
            cells = pair_cell[first]
            q_rows = qn[pair_q]
            blocks = []
            for a, b, lo, n in zip(
                first.tolist(),
                first[1:].tolist() + [pair_cell.size],
                self._cell_lo[cells].tolist(),
                self._cell_len[cells].tolist(),
            ):
                if n:
                    block = kernel_ops.gemm(q_rows[a:b], self._slab[lo : lo + n].T)
                    blocks.append(block.ravel())
            cand = np.full(num_q * width, -np.inf, dtype=self.dtype)
            if blocks:
                # Pair i's similarities are flat[src[i] : src[i] + len[i]] of
                # the concatenated blocks and go to cand[dst[i] : ...].
                pair_len = lens.ravel()[by_cell]
                pair_src = np.cumsum(pair_len) - pair_len
                pair_dst = pair_q * width + starts.ravel()[by_cell]
                into = np.repeat(pair_dst - pair_src, pair_len) + np.arange(scanned)
                cand[into] = np.concatenate(blocks)
            cand = cand.reshape(num_q, width)
        if exclude is not None:
            # The query's own row, where one of its probed cells holds it.
            own = np.asarray(exclude, dtype=np.int64).ravel()
            q_hit, cell_hit = np.nonzero(probe_sets == self.assignments[own][:, None])
            cand[q_hit, self._slot[own[q_hit]] - shift[q_hit, cell_hit]] = -np.inf
        cols, top_sims = _topk_rows(cand, k)
        # Column -> the (query, probed cell) pair it falls in -> slab row
        # -> vertex id; -inf marks padding and the excluded row.
        base = (np.arange(num_q) * width)[:, None]
        pair = (ends + base).ravel().searchsorted(cols + base, side="right")
        ids = self._order.take(cols + shift.take(pair, mode="clip"), mode="clip")
        ids[top_sims == -np.inf] = -1
        if cols.shape[1] == k:
            return ids, top_sims
        idx_out = np.full((num_q, k), -1, dtype=np.int64)
        sim_out = np.full((num_q, k), -np.inf, dtype=self.dtype)
        idx_out[:, : cols.shape[1]] = ids
        sim_out[:, : cols.shape[1]] = top_sims
        return idx_out, sim_out

    def search_ids(
        self, query_ids: np.ndarray, k: int, *, probes: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` neighbors of indexed vertices, excluding themselves."""
        query_ids = np.asarray(query_ids, dtype=np.int64).ravel()
        return self.search(
            self._slab[self._slot[query_ids]],
            k,
            probes=probes,
            exclude=query_ids,
            normalized=True,
        )


def build_index(
    embeddings: np.ndarray,
    kind: str = "brute",
    **kwargs,
) -> BruteForceIndex | ClusterIndex:
    """Factory: ``"brute"`` → :class:`BruteForceIndex`, ``"cluster"`` →
    :class:`ClusterIndex`. Keyword arguments pass through to the chosen
    constructor."""
    if kind == "brute":
        return BruteForceIndex(embeddings, **kwargs)
    if kind == "cluster":
        return ClusterIndex(embeddings, **kwargs)
    raise ValueError(f"unknown index kind {kind!r}")
