"""Kernel backends and the registry that selects between them.

A backend is a named pair of implementations — one dense ``gemm``, one
sparse ``spmm`` — registered under a string key. The dispatch functions
in :mod:`repro.kernels.ops` look the key up here, so swapping the
implementation under every layer/trainer/serving call site is a one-line
``backend=`` change, never a model-code edit. Two backends ship:

* ``"scipy"`` — numpy BLAS gemm + scipy CSR spmm (the default);
* ``"numpy"`` — numpy BLAS gemm + pure-numpy ``add.reduceat``
  segment-sum spmm (dependency-free oracle, also what the partitioned
  propagation driver models).

The scipy backend memoizes the ``scipy.sparse.csr_matrix`` view of each
:class:`~repro.graphs.csr.CSRGraph` in a weak, id-keyed cache (one entry
per dtype), so repeated SpMMs over the same graph — every training
iteration, every propagation pass — reuse one operator instead of
rebuilding indptr/indices/data wrappers per call.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np
import scipy.sparse as sp

from ..obs import is_enabled as _obs_enabled
from ..obs import metrics as _obs_metrics

if TYPE_CHECKING:  # import only for annotations: keeps repro.kernels
    # importable before repro.graphs finishes initializing (no cycle).
    from ..graphs.csr import CSRGraph

__all__ = [
    "KernelBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "default_backend",
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
# one (the pre-PR-3 rebuild-per-call cost this cache eliminated). The
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
# Raw kernel implementations


def _gemm_numpy(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray]
) -> np.ndarray:
    if out is None:
        return a @ b
    return np.matmul(a, b, out=out)


def _spmm_scipy(
    graph: CSRGraph, x: np.ndarray, out: Optional[np.ndarray]
) -> np.ndarray:
    result = adjacency_matrix(graph, x.dtype if x.dtype.kind == "f" else np.float64) @ x
    if out is None:
        return result
    np.copyto(out, result)
    return out


def segment_sum(
    values: np.ndarray,
    indptr: np.ndarray,
    num_segments: int,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sum contiguous row-segments of ``values`` delimited by ``indptr``.

    Segment ``i`` is ``values[indptr[i]:indptr[i+1]]``; empty segments
    yield zero rows (``np.add.reduceat``'s empty-segment pitfall — it
    would return the *next* element — is handled by only reducing at the
    starts of non-empty segments).
    """
    shape = (num_segments,) + values.shape[1:]
    if out is None:
        out = np.zeros(shape, dtype=values.dtype)
    else:
        out[...] = 0
    if values.shape[0] == 0:
        return out
    lengths = np.diff(indptr)
    nonempty = np.flatnonzero(lengths > 0)
    out[nonempty] = np.add.reduceat(values, indptr[nonempty], axis=0)
    return out


def _spmm_numpy(
    graph: CSRGraph, x: np.ndarray, out: Optional[np.ndarray]
) -> np.ndarray:
    if graph.num_edges_directed == 0:
        shape = (graph.num_vertices, x.shape[1])
        if out is None:
            return np.zeros(shape, dtype=x.dtype)
        out[...] = 0
        return out
    gathered = x[graph.indices]
    return segment_sum(gathered, graph.indptr, graph.num_vertices, out=out)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class KernelBackend:
    """A named (gemm, spmm) implementation pair.

    ``gemm(a, b, out)`` multiplies two 2-D arrays; ``spmm(graph, x, out)``
    computes the unweighted neighbor-sum ``A @ x`` over a CSR graph. Both
    must write into ``out`` when it is given and return the result array
    either way. Implementations are *raw*: dispatch, validation, timing
    and flop accounting live in :mod:`repro.kernels.ops`.
    """

    name: str
    gemm: Callable[[np.ndarray, np.ndarray, Optional[np.ndarray]], np.ndarray]
    spmm: Callable[[CSRGraph, np.ndarray, Optional[np.ndarray]], np.ndarray]


_REGISTRY: dict[str, KernelBackend] = {}
_DEFAULT_NAME = "scipy"  # a constant: nothing in the process can move it


def register_backend(backend: KernelBackend, *, overwrite: bool = False) -> None:
    """Add ``backend`` to the registry under ``backend.name``."""
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} already registered")
    _REGISTRY[backend.name] = backend


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """Look up a backend by name (``None`` → the default, ``"scipy"``)."""
    key = _DEFAULT_NAME if name is None else name
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {key!r}; available: {available_backends()}"
        ) from None


def available_backends() -> list[str]:
    """Sorted names of every registered backend."""
    return sorted(_REGISTRY)


def default_backend() -> str:
    """Name of the backend used when call sites pass ``backend=None``."""
    return _DEFAULT_NAME


register_backend(KernelBackend(name="scipy", gemm=_gemm_numpy, spmm=_spmm_scipy))
register_backend(KernelBackend(name="numpy", gemm=_gemm_numpy, spmm=_spmm_numpy))
