"""The CSR adjacency operator every SpMM multiplies by, and the segment sum.

:func:`repro.kernels.ops.spmm` multiplies by the unweighted scipy CSR
adjacency of a :class:`~repro.graphs.csr.CSRGraph`. That operator is
memoized per graph in a weak, id-keyed cache (one entry per dtype), so
repeated SpMMs over the same graph — every training iteration, every
propagation pass — reuse one operator instead of rebuilding
indptr/indices/data wrappers per call.

:func:`segment_sum` is the pure-numpy ``add.reduceat`` reduction behind
the layer-sampling baselines' block aggregation
(:func:`repro.kernels.ops.gather_segment_sum`) and behind
:func:`repro.propagation.spmm.spmm_sum_numpy`, the oracle the CSR kernel
is tested against.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ..obs import is_enabled as _obs_enabled
from ..obs import metrics as _obs_metrics

if TYPE_CHECKING:  # import only for annotations: keeps repro.kernels
    # importable before repro.graphs finishes initializing (no cycle).
    from ..graphs.csr import CSRGraph

__all__ = [
    "WeakIdMemo",
    "adjacency_matrix",
    "adjacency_cache_stats",
    "segment_sum",
]


# ---------------------------------------------------------------------------
# Memoized scipy adjacency


class WeakIdMemo:
    """One dict per owner object, dropped when the owner is collected.

    For owners that hold ndarrays and are therefore unhashable (a
    ``WeakKeyDictionary`` cannot key on them): slots are keyed by
    ``id(owner)`` and evicted by a weakref callback; id reuse is also
    guarded by an identity check on lookup. ``len`` is the number of
    live owners, ``id(owner) in memo`` whether one has a slot.
    """

    def __init__(self) -> None:
        self._slots: dict[int, tuple[weakref.ref, dict]] = {}

    def slot(self, owner: object) -> dict:
        """The dict kept for ``owner`` (created empty on first use)."""
        key = id(owner)
        entry = self._slots.get(key)
        if entry is None or entry[0]() is not owner:

            def _evict(_ref: object, _key: int = key) -> None:
                self._slots.pop(_key, None)

            entry = self._slots[key] = (weakref.ref(owner, _evict), {})
        return entry[1]

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: int) -> bool:
        return key in self._slots


# graph -> {dtype: csr_matrix}
_ADJACENCY_CACHE = WeakIdMemo()

# Running hit/miss tally for the memo cache. A "hit" is a lookup that
# found the (graph, dtype) operator already built; a "miss" had to build
# one (the rebuild-per-call cost this cache eliminated). The
# live-entry count is derived: one cache slot per live graph.
_ADJACENCY_STATS = {"hits": 0, "misses": 0}


def adjacency_cache_stats() -> dict[str, int]:
    """Hit/miss/live-entry counts for the weak CSR adjacency memo cache."""
    return {
        "hits": _ADJACENCY_STATS["hits"],
        "misses": _ADJACENCY_STATS["misses"],
        "live_entries": len(_ADJACENCY_CACHE),
    }


def adjacency_matrix(graph: CSRGraph, dtype=np.float64) -> sp.csr_matrix:
    """The unweighted scipy CSR adjacency of ``graph``, memoized per graph.

    The cache is weak in the graph: dropping the last reference to a
    ``CSRGraph`` frees its cached operator too. One entry is kept per
    requested dtype (float32 serving and float64 reference can coexist).
    """
    dtype = np.dtype(dtype)
    per_dtype = _ADJACENCY_CACHE.slot(graph)
    mat = per_dtype.get(dtype)
    if mat is None:
        _ADJACENCY_STATS["misses"] += 1
        if _obs_enabled():
            _obs_metrics.inc("kernels.adjacency_cache.misses")
            _obs_metrics.set_gauge(
                "kernels.adjacency_cache.live_entries", len(_ADJACENCY_CACHE)
            )
        data = np.ones(graph.num_edges_directed, dtype=dtype)
        n = graph.num_vertices
        mat = sp.csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))
        per_dtype[dtype] = mat
    else:
        _ADJACENCY_STATS["hits"] += 1
        if _obs_enabled():
            _obs_metrics.inc("kernels.adjacency_cache.hits")
    return mat


# ---------------------------------------------------------------------------
# Segment sum


def segment_sum(values: np.ndarray, indptr: np.ndarray, num_segments: int) -> np.ndarray:
    """Sum contiguous row-segments of ``values`` delimited by ``indptr``.

    Segment ``i`` is ``values[indptr[i]:indptr[i+1]]``; empty segments
    yield zero rows (``np.add.reduceat``'s empty-segment pitfall — it
    would return the *next* element — is handled by only reducing at the
    starts of non-empty segments).
    """
    out = np.zeros((num_segments,) + values.shape[1:], dtype=values.dtype)
    if values.shape[0] == 0:
        return out
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths > 0)
    out[nonempty] = np.add.reduceat(values, indptr[nonempty], axis=0)
    return out
