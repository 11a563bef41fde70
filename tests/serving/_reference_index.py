"""Reference oracle for :class:`repro.serving.index.ClusterIndex`.

The cluster index as it was before the cell-contiguous slab layout:
rows kept in vertex order and gathered per probed cell, one Python merge
per query, and a k-means centroid update that masks and gathers per
cell. Slow and obviously right; ``test_index_oracle.py`` requires the
slab index to return the same bits. Every GEMM goes through
``kernels.ops`` with the operands the slab index hands it, so the two
can also be compared call for call in ``kernels.accounting``.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import ops as kernel_ops
from repro.serving.index import l2_normalize_rows


def reference_kmeans(normed, num_clusters, rng, iters=12, init=None):
    """Spherical Lloyd iterations, centroids updated cell by cell from
    ``assignments == c`` masks (empty cells reseeded in cell order).
    Always runs all ``iters``; starts from ``init`` centroids if given."""
    n = normed.shape[0]
    if init is None:
        start = rng.choice(n, size=num_clusters, replace=False)
        centroids = normed[start].copy()
    else:
        centroids = np.array(init, dtype=normed.dtype)
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        sims = kernel_ops.gemm(normed, centroids.T)
        assignments = sims.argmax(axis=1)
        best = sims[np.arange(n), assignments]
        for c in range(num_clusters):
            members = assignments == c
            if not members.any():
                worst = int(np.argmin(best))
                centroids[c] = normed[worst]
                assignments[worst] = c
                best[worst] = 1.0
                continue
            mean = normed[members].mean(axis=0)
            norm = np.linalg.norm(mean)
            centroids[c] = mean / norm if norm > 0 else normed[members][0]
    return centroids, assignments


class ReferenceClusterIndex:
    """Per-cell gather, per-query merge (see module docstring)."""

    def __init__(
        self,
        embeddings,
        *,
        num_clusters=None,
        probes=4,
        assignments=None,
        rng=None,
        kmeans_iters=12,
        dtype=np.float64,
    ):
        self.dtype = np.dtype(dtype)
        self._normed = l2_normalize_rows(embeddings, dtype=self.dtype)
        n = self._normed.shape[0]
        if assignments is not None:
            assignments = np.asarray(assignments, dtype=np.int64).ravel()
            num_clusters = int(assignments.max()) + 1
            centroids = np.zeros((num_clusters, self._normed.shape[1]), dtype=self.dtype)
            for c in range(num_clusters):
                members = assignments == c
                if members.any():
                    centroids[c] = self._normed[members].mean(axis=0)
            centroids = l2_normalize_rows(centroids, dtype=self.dtype)
        else:
            if num_clusters is None:
                num_clusters = max(1, min(n, int(round(np.sqrt(n)))))
            rng = rng or np.random.default_rng(0)
            centroids, assignments = reference_kmeans(
                self._normed, num_clusters, rng, iters=kmeans_iters
            )
        self.centroids = centroids
        self.assignments = assignments
        self.num_clusters = num_clusters
        self.default_probes = int(np.clip(probes, 1, num_clusters))
        self._members = [np.flatnonzero(assignments == c) for c in range(num_clusters)]
        self.last_rows_scanned = 0

    def search(self, query_vecs, k, *, probes=None, exclude=None, normalized=False):
        query_vecs = np.atleast_2d(np.asarray(query_vecs, dtype=self.dtype))
        qn = query_vecs if normalized else l2_normalize_rows(query_vecs, dtype=self.dtype)
        num_q = qn.shape[0]
        p = int(np.clip(probes or self.default_probes, 1, self.num_clusters))
        cent_sims = kernel_ops.gemm(qn, self.centroids.T)
        if p < self.num_clusters:
            probe_sets = np.argpartition(-cent_sims, kth=p - 1, axis=1)[:, :p]
        else:
            probe_sets = np.tile(np.arange(self.num_clusters), (num_q, 1))
        cand_ids = [[] for _ in range(num_q)]
        cand_sims = [[] for _ in range(num_q)]
        scanned = 0
        for c in range(self.num_clusters):
            querying = np.flatnonzero((probe_sets == c).any(axis=1))
            members = self._members[c]
            if querying.size == 0 or members.size == 0:
                continue
            block = kernel_ops.gemm(qn[querying], self._normed[members].T)
            scanned += querying.size * members.size
            for row, q in enumerate(querying):
                cand_ids[q].append(members)
                cand_sims[q].append(block[row])
        self.last_rows_scanned = scanned
        idx_out = np.full((num_q, k), -1, dtype=np.int64)
        sim_out = np.full((num_q, k), -np.inf, dtype=self.dtype)
        exclude = None if exclude is None else np.asarray(exclude).ravel()
        for q in range(num_q):
            if not cand_ids[q]:
                continue
            ids = np.concatenate(cand_ids[q])
            sims = np.concatenate(cand_sims[q])
            if exclude is not None:
                keep = ids != exclude[q]
                ids, sims = ids[keep], sims[keep]
            if ids.size == 0:
                continue
            kk = min(k, ids.size)
            top = np.argpartition(-sims, kth=kk - 1)[:kk]
            top = top[np.argsort(-sims[top])]
            idx_out[q, :kk] = ids[top]
            sim_out[q, :kk] = sims[top]
        return idx_out, sim_out

    def search_ids(self, query_ids, k, *, probes=None):
        query_ids = np.asarray(query_ids, dtype=np.int64).ravel()
        return self.search(
            self._normed[query_ids], k, probes=probes, exclude=query_ids, normalized=True
        )
