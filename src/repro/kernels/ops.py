"""The single dispatch point for every dense/sparse compute kernel.

All hot-path matrix math in the repo goes through these functions —
``nn`` layers, the sampling baselines, feature propagation, the trainer
and the serving indexes. A call is one straight line:

1. validate shapes,
2. look up the call's :class:`~repro.kernels.accounting.ShapeClass` —
   the shared instance of a memo on ``(log2 buckets, dtype, variant)``,
   so the dtype name and the accounting key string are built once per
   class, not once per call (a 1x256 @ 256x64 product is ~4 us of BLAS;
   the per-call string work used to cost several times that),
3. run the product on the selected
   :class:`~repro.kernels.backends.KernelBackend` — ``backend=None`` is
   the default, ``"scipy"``; oracles and corpus synthesis name one
   explicitly — optionally into a caller-provided ``out=`` buffer, and
4. report its exact flop count, modeled bytes and wall time —
   per shape class — to :mod:`repro.kernels.accounting`.

With ``out=None`` every function is *bit-identical* to the raw numpy
expression it replaced (``a @ b``, gather + ``add.reduceat``, ...),
which is what keeps the float64 reference dtype policy reproducing
seed-era results exactly. A guard test
(``tests/kernels/test_kernel_guard.py``) AST-scans the tree so no raw
matmul — and no raw ``get_backend(...).gemm`` bypass — creeps back in
outside this package.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import accounting

if TYPE_CHECKING:  # annotation-only: see backends.py on the import cycle.
    from ..graphs.csr import CSRGraph
from .accounting import ShapeClass
from .backends import get_backend, segment_sum

__all__ = [
    "gemm",
    "gemm_accumulate",
    "spmm",
    "spmm_adjoint",
    "gather_segment_sum",
    "scatter_add_rows",
    "relu",
    "relu_backward",
    "add_bias",
]

_perf_counter = time.perf_counter


def _gemm_class_key(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray]) -> str:
    """Validate one ``a @ b``; the key of the class it is accounted under."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"gemm expects 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"gemm shape mismatch: {a.shape} @ {b.shape}")
    variant = "alloc" if out is None else "out"
    return ShapeClass.for_gemm(
        a.shape[0], a.shape[1], b.shape[1], a.dtype, variant=variant
    ).key


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Dense ``a @ b`` with optional ``out=`` buffer, metered."""
    class_key = _gemm_class_key(a, b, out)
    impl = get_backend(backend)
    t0 = _perf_counter()
    result = impl.gemm(a, b, out)
    accounting.record_gemm(
        a.shape[0],
        a.shape[1],
        b.shape[1],
        _perf_counter() - t0,
        class_key=class_key,
        itemsize=result.dtype.itemsize,
    )
    return result


def gemm_accumulate(
    acc: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    *,
    backend: Optional[str] = None,
) -> np.ndarray:
    """``acc += a @ b`` (gradient accumulation), metered.

    Literally ``acc += a @ b`` — one temporary per call, bit-identical to
    the seed expressions.
    """
    class_key = _gemm_class_key(a, b, None)
    impl = get_backend(backend)
    if acc.shape != (a.shape[0], b.shape[1]):
        raise ValueError(f"acc shape {acc.shape} != product shape ({a.shape[0]}, {b.shape[1]})")
    t0 = _perf_counter()
    acc += impl.gemm(a, b, None)
    accounting.record_gemm(
        a.shape[0],
        a.shape[1],
        b.shape[1],
        _perf_counter() - t0,
        class_key=class_key,
        itemsize=acc.dtype.itemsize,
    )
    return acc


def spmm(
    graph: CSRGraph,
    x: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Sparse neighbor-sum ``A @ x`` over a CSR graph, metered."""
    if x.ndim != 2:
        raise ValueError(f"spmm expects a 2-D feature matrix, got {x.ndim}-D")
    if x.shape[0] != graph.num_vertices:
        raise ValueError(f"feature rows {x.shape[0]} != vertices {graph.num_vertices}")
    sc = ShapeClass.for_spmm(
        graph.num_vertices, graph.num_edges_directed, x.shape[1], x.dtype
    )
    impl = get_backend(backend)
    t0 = _perf_counter()
    result = impl.spmm(graph, x, out)
    accounting.record_spmm(
        graph.num_edges_directed,
        x.shape[1],
        _perf_counter() - t0,
        rows=graph.num_vertices,
        class_key=sc.key,
        itemsize=result.dtype.itemsize,
    )
    return result


def spmm_adjoint(
    graph: CSRGraph,
    grad: np.ndarray,
    *,
    out: Optional[np.ndarray] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Adjoint SpMM ``A^T @ grad``.

    All graphs in this repo store symmetric (undirected) adjacency, so
    ``A^T = A`` and the same kernel serves both directions; this entry
    point keeps the forward/adjoint distinction explicit at call sites
    (and is the seam where a directed-graph transpose kernel would slot
    in).
    """
    return spmm(graph, grad, out=out, backend=backend)


def gather_segment_sum(
    src: np.ndarray,
    take: np.ndarray,
    indptr: np.ndarray,
    num_out: int,
    *,
    weights: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bipartite SpMM: gather ``src`` rows then segment-sum per ``indptr``.

    This is the sampled-block aggregation of the layer-sampling baselines
    (GraphSAGE / FastGCN): ``take`` holds per-edge source positions,
    ``weights`` optional per-edge coefficients. Metered as an SpMM over
    ``take.size`` edges.
    """
    t0 = _perf_counter()
    gathered = src[take]
    if weights is not None:
        if weights.dtype != src.dtype:
            # Keep the feature dtype in charge: float32 features must not
            # be promoted through float64 edge weights.
            weights = weights.astype(src.dtype)
        gathered = gathered * weights[:, None]
    result = segment_sum(gathered, indptr, num_out, out=out)
    sc = ShapeClass.for_spmm(
        num_out, int(take.size), src.shape[1], src.dtype, variant="gather"
    )
    accounting.record_spmm(
        int(take.size),
        src.shape[1],
        _perf_counter() - t0,
        rows=num_out,
        class_key=sc.key,
        itemsize=result.dtype.itemsize,
    )
    return result


def scatter_add_rows(
    per_edge: np.ndarray,
    take: np.ndarray,
    num_out: int,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Adjoint of :func:`gather_segment_sum`: scatter-add edge rows to
    ``num_out`` destination rows. Metered as an SpMM over ``take.size``
    edges."""
    t0 = _perf_counter()
    if out is None:
        out = np.zeros((num_out,) + per_edge.shape[1:], dtype=per_edge.dtype)
    else:
        out[...] = 0
    np.add.at(out, take, per_edge)
    cols = per_edge.shape[1] if per_edge.ndim > 1 else 1
    sc = ShapeClass.for_spmm(
        num_out, int(take.size), cols, per_edge.dtype, variant="scatter"
    )
    accounting.record_spmm(
        int(take.size),
        cols,
        _perf_counter() - t0,
        rows=num_out,
        class_key=sc.key,
        itemsize=out.dtype.itemsize,
    )
    return out


# ---------------------------------------------------------------------------
# Elementwise helpers (out=-aware; not metered — memory-bound, no MACs)


def relu(x: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise ``max(x, 0)``; dtype-preserving."""
    if out is None:
        return np.maximum(x, 0.0)
    return np.maximum(x, 0.0, out=out)


def relu_backward(
    z: np.ndarray, grad_out: np.ndarray, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Gradient through ReLU given pre-activation ``z``.

    Both paths run :func:`repro.nn.activations.relu_grad`, so ``out=``
    holds the same bits as the returned array (+0.0 where ``z <= 0``).
    """
    from ..nn.activations import relu_grad  # nn imports this module

    dz = relu_grad(z, grad_out)
    if out is None:
        return dz
    np.copyto(out, dz)
    return out


def add_bias(z: np.ndarray, b: np.ndarray, *, inplace: bool = False) -> np.ndarray:
    """Row-broadcast bias add; in place when the caller owns ``z``."""
    if inplace:
        z += b
        return z
    return z + b
