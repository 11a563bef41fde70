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
3. run the product: BLAS ``a @ b`` for a GEMM (optionally into a
   caller-provided ``out=`` buffer), the memoized scipy CSR adjacency
   (:func:`repro.kernels.sparse.adjacency_matrix`) times ``x`` for an
   SpMM, and
4. report its exact flop count, modeled bytes and wall time —
   per shape class — to :mod:`repro.kernels.accounting`.

:func:`gemm_pair` runs two independent GEMMs — a GCN layer's neighbor
and self branch products — at once: the first on one worker thread, the
second on the caller; :func:`gemm` runs one wide product's two row
halves at once the same way, the second half on the worker. Either runs
on two threads only when each product (each half) is at least
:data:`PAIR_MIN_FLOPS`, OpenBLAS runs one thread per call (read from the
library itself by :func:`blas_threads`), the process may use two cores
and the worker is free; otherwise it is the serial call. Every product
is the same single-threaded BLAS kernel summing the same ``k`` terms in
the same order for each output row either way, so the results are the
same bits.

Every function is *bit-identical* to the raw numpy expression it
replaced (``a @ b``, gather + ``add.reduceat``, ...), which is what
keeps the float64 reference dtype policy reproducing seed-era results
exactly. A guard test (``tests/kernels/test_kernel_guard.py``) AST-scans
the tree so no raw matmul creeps back in outside this package.
"""

from __future__ import annotations

import ctypes
import functools
import os
import queue
import threading
import time
from typing import TYPE_CHECKING, Optional

import numpy as np
import scipy.sparse as sp

from . import accounting

if TYPE_CHECKING:  # annotation-only: see sparse.py on the import cycle.
    from ..graphs.csr import CSRGraph
from .accounting import ShapeClass
from .sparse import adjacency_matrix, segment_sum

__all__ = [
    "gemm",
    "gemm_pair",
    "gemm_accumulate",
    "spmm",
    "spmm_adjoint",
    "gather_segment_sum",
    "scatter_add_rows",
    "cell_sums",
    "row_norms",
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
) -> np.ndarray:
    """Dense ``a @ b`` with optional ``out=`` buffer, metered.

    When ``m * k * n`` reaches :data:`PAIR_MIN_FLOPS` (each row half is
    then at least that many flops) and :func:`_split_claimed`, the rows
    ``h:`` run on the worker thread while the caller runs the rows
    ``:h``. Either way the call is one product to
    :mod:`~repro.kernels.accounting`, timed on the wall clock.
    """
    class_key = _gemm_class_key(a, b, out)
    t0 = _perf_counter()
    if a.size * b.shape[1] >= PAIR_MIN_FLOPS and _split_claimed(a, b, out):
        result = _gemm_halves(a, b, out)
    else:
        result = a @ b if out is None else np.matmul(a, b, out=out)
    accounting.record_gemm(
        a.shape[0],
        a.shape[1],
        b.shape[1],
        _perf_counter() - t0,
        class_key=class_key,
        itemsize=result.dtype.itemsize,
    )
    return result


#: Flops each product of a :func:`gemm_pair`, and each row half of a
#: :func:`gemm`, needs before it runs on two threads. Below it the
#: handoff to the worker costs more than the overlap wins; every
#: training product of the 140-vertex PPI subgraphs (at most 9.2 Mflop)
#: stays serial.
PAIR_MIN_FLOPS = 2.0**24

#: The thread-count query of the OpenBLAS build numpy's wheels bundle.
_BLAS_THREAD_SYMBOL = "scipy_openblas_get_num_threads64_"


@functools.cache
def _blas_thread_query():
    """OpenBLAS's ``get_num_threads`` as a ctypes function, or ``None``.

    Looked up through numpy's own extension module, whose symbol scope
    holds the BLAS library it was linked with."""
    try:
        from numpy._core import _multiarray_umath as umath

        query = getattr(ctypes.CDLL(umath.__file__), _BLAS_THREAD_SYMBOL)
    except (ImportError, OSError, AttributeError):
        return None
    query.restype = ctypes.c_int
    query.argtypes = []
    return query


def blas_threads() -> Optional[int]:
    """Threads the BLAS library runs one call on, as the library reports
    it; ``None`` when it cannot be read (then no pair runs concurrently)."""
    query = _blas_thread_query()
    return None if query is None else int(query())


@functools.cache
def _cpu_query():
    """libc's ``sched_getcpu`` (the core the calling thread runs on) as a
    ctypes function, or ``None`` where it or thread affinity is missing."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        query = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    query.restype = ctypes.c_int
    query.argtypes = []
    return query


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _PairWorker:
    """The one thread that runs the first product of a concurrent pair,
    or the second row half of a split :func:`gemm`.

    Started on first use; it only writes into the caller's ``out`` and
    reports the product's wall seconds or its exception. ``busy`` is
    held for one pair or one split product, so a second thread calling
    :func:`gemm_pair` or :func:`gemm` meanwhile runs serially instead of
    queueing behind it.
    """

    def __init__(self) -> None:
        self.busy = threading.Lock()
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None
        self._off_core: Optional[int] = None  # the core the worker may not use

    def _run(self) -> None:
        while True:
            a, b, out = self._tasks.get()
            t0 = _perf_counter()
            try:
                np.matmul(a, b, out=out)
            except BaseException as exc:  # handed to the caller
                self._results.put(exc)
            else:
                self._results.put(_perf_counter() - t0)

    def submit(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="gemm-pair", daemon=True
            )
            self._thread.start()
        self._keep_off_the_callers_core()
        self._tasks.put((a, b, out))

    def _keep_off_the_callers_core(self) -> None:
        """Let the worker run on any usable core but the caller's.

        A woken thread is often placed on its waker's core even when
        another core is idle, and it stays there: the two products then
        share one core until the scheduler rebalances (one process ran
        68 of its first 80 splits of a 7 168 x 256 @ 256 x 128 product at
        the serial 16 ms before the halves reached two cores). The mask
        changes only when the caller's core does."""
        query = _cpu_query()
        if query is None:
            return
        core = query()
        if core == self._off_core:
            return
        allowed = os.sched_getaffinity(0) - {core}
        if not allowed:
            return
        try:
            os.sched_setaffinity(self._thread.native_id, allowed)
        except OSError:  # the thread or the cores went away: leave it be
            return
        self._off_core = core

    def join(self) -> float:
        """The submitted product's wall seconds; re-raises its error."""
        result = self._results.get()
        if isinstance(result, BaseException):
            raise result
        return result


_PAIR_WORKER = _PairWorker()
# A forked child inherits the worker's state but not its thread.
os.register_at_fork(after_in_child=_PAIR_WORKER.__init__)


def _claim_worker() -> bool:
    """Whether a wide product may run on two threads now: OpenBLAS runs
    one thread per call, two cores are usable and the worker is free.
    On ``True`` the caller holds ``_PAIR_WORKER.busy`` and releases it."""
    return (
        blas_threads() == 1
        and _usable_cores() >= 2
        and _PAIR_WORKER.busy.acquire(blocking=False)
    )


def _split_claimed(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray]) -> bool:
    """Whether a wide :func:`gemm` runs its row halves at once: each half
    has two rows or more (a 1-row product is a GEMV, with other bits),
    ``out`` has the product's shape and shares no memory with an operand
    (each half must write only its own rows), and the worker is claimed."""
    m, n = a.shape[0], b.shape[1]
    own_rows = out is None or (
        out.shape == (m, n) and not (np.may_share_memory(out, a) or np.may_share_memory(out, b))
    )
    return m >= 4 and own_rows and _claim_worker()


def _gemm_halves(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``a @ b`` as two row halves at once, the second on the worker; the
    caller has claimed it. Plain ``np.matmul`` on both sides: the one
    product is metered by :func:`gemm`."""
    worker = _PAIR_WORKER
    try:
        m, n = a.shape[0], b.shape[1]
        result = out if out is not None else np.empty((m, n), np.result_type(a, b))
        h = m // 2
        worker.submit(a[h:], b, result[h:])
        try:
            np.matmul(a[:h], b, out=result[:h])
        finally:
            worker.join()
    finally:
        worker.busy.release()
    return result


def gemm_pair(
    a1: np.ndarray,
    b1: np.ndarray,
    out1: Optional[np.ndarray],
    a2: np.ndarray,
    b2: np.ndarray,
    out2: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Two independent metered products ``a1 @ b1`` and ``a2 @ b2``.

    Each ``out`` is the caller's buffer or ``None`` (a fresh array). When
    both products reach :data:`PAIR_MIN_FLOPS` and the worker can be
    claimed (:func:`_claim_worker`), the first runs on the worker thread
    while the caller runs the second through :func:`gemm`, which cannot
    split it while the pair holds the worker; the first is then
    recorded to :mod:`~repro.kernels.accounting` on the caller, under
    the shape class :func:`gemm` would have given it. Otherwise this is
    ``gemm(a1, b1, out=out1), gemm(a2, b2, out=out2)``.
    """
    worker = _PAIR_WORKER
    # a.size * b.shape[-1] is m * k * n; the serial path leaves the
    # validation to gemm, so a small pair pays for it once.
    if (
        2.0 * min(a1.size * b1.shape[-1], a2.size * b2.shape[-1]) < PAIR_MIN_FLOPS
        or not _claim_worker()
    ):
        return gemm(a1, b1, out=out1), gemm(a2, b2, out=out2)
    try:
        class_key = _gemm_class_key(a1, b1, out1)
        _gemm_class_key(a2, b2, out2)
        m, k, n = a1.shape[0], a1.shape[1], b1.shape[1]
        first = out1 if out1 is not None else np.empty((m, n), np.result_type(a1, b1))
        worker.submit(a1, b1, first)
        try:
            second = gemm(a2, b2, out=out2)
        finally:
            seconds = worker.join()
    finally:
        worker.busy.release()
    accounting.record_gemm(
        m, k, n, seconds, class_key=class_key, itemsize=first.dtype.itemsize
    )
    return first, second


def gemm_accumulate(acc: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``acc += a @ b`` (gradient accumulation), metered.

    Literally ``acc += a @ b`` — one temporary per call, bit-identical to
    the seed expressions.
    """
    class_key = _gemm_class_key(a, b, None)
    if acc.shape != (a.shape[0], b.shape[1]):
        raise ValueError(f"acc shape {acc.shape} != product shape ({a.shape[0]}, {b.shape[1]})")
    t0 = _perf_counter()
    acc += a @ b
    accounting.record_gemm(
        a.shape[0],
        a.shape[1],
        b.shape[1],
        _perf_counter() - t0,
        class_key=class_key,
        itemsize=acc.dtype.itemsize,
    )
    return acc


def spmm(graph: CSRGraph, x: np.ndarray) -> np.ndarray:
    """Sparse neighbor-sum ``A @ x`` over a CSR graph, metered: the scipy
    CSR adjacency (memoized per graph and dtype) times ``x``."""
    if x.ndim != 2:
        raise ValueError(f"spmm expects a 2-D feature matrix, got {x.ndim}-D")
    if x.shape[0] != graph.num_vertices:
        raise ValueError(f"feature rows {x.shape[0]} != vertices {graph.num_vertices}")
    sc = ShapeClass.for_spmm(
        graph.num_vertices, graph.num_edges_directed, x.shape[1], x.dtype
    )
    t0 = _perf_counter()
    result = adjacency_matrix(graph, x.dtype if x.dtype.kind == "f" else np.float64) @ x
    accounting.record_spmm(
        graph.num_edges_directed,
        x.shape[1],
        _perf_counter() - t0,
        rows=graph.num_vertices,
        class_key=sc.key,
        itemsize=result.dtype.itemsize,
    )
    return result


def spmm_adjoint(graph: CSRGraph, grad: np.ndarray) -> np.ndarray:
    """Adjoint SpMM ``A^T @ grad``.

    All graphs in this repo store symmetric (undirected) adjacency, so
    ``A^T = A`` and the same kernel serves both directions; this entry
    point keeps the forward/adjoint distinction explicit at call sites
    (and is the seam where a directed-graph transpose kernel would slot
    in).
    """
    return spmm(graph, grad)


def gather_segment_sum(
    src: np.ndarray,
    take: np.ndarray,
    indptr: np.ndarray,
    num_out: int,
    *,
    weights: Optional[np.ndarray] = None,
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
    result = segment_sum(gathered, indptr, num_out)
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


def scatter_add_rows(per_edge: np.ndarray, take: np.ndarray, num_out: int) -> np.ndarray:
    """Adjoint of :func:`gather_segment_sum`: scatter-add edge rows to
    ``num_out`` destination rows. Metered as an SpMM over ``take.size``
    edges."""
    t0 = _perf_counter()
    out = np.zeros((num_out,) + per_edge.shape[1:], dtype=per_edge.dtype)
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


def cell_sums(rows: np.ndarray, order: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Per-cell row sums over a grouped layout, metered: row ``c`` of the
    result is ``rows[order[ptr[c]:ptr[c + 1]]].sum(axis=0)``.

    One scipy CSR product — data ones in ``rows``' own dtype (float64
    ones would promote float32 sums), indices ``order``, indptr ``ptr``
    — over ``rows`` in place, with no gather. scipy's ``csr_matvecs``
    adds each cell's rows in ``order`` from zero, which for an ascending
    segment of rows at least two wide is the bits of the per-cell
    ``sum(axis=0)`` (``reduceat``'s are not; one column wide, numpy sums
    pairwise). An empty cell sums to a zero row. Metered as an SpMM over
    ``order.size`` nonzeros.
    """
    num_cells = ptr.size - 1
    t0 = _perf_counter()
    members = sp.csr_array(
        (np.ones(order.size, dtype=rows.dtype), order, ptr),
        shape=(num_cells, rows.shape[0]),
    )
    result = members @ rows
    sc = ShapeClass.for_spmm(
        num_cells, int(order.size), rows.shape[1], rows.dtype, variant="cells"
    )
    accounting.record_spmm(
        int(order.size),
        rows.shape[1],
        _perf_counter() - t0,
        rows=num_cells,
        class_key=sc.key,
        itemsize=result.dtype.itemsize,
    )
    return result


def row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(row)`` of every row, bit for bit: the one BLAS
    dot per row that ``norm`` runs on a vector (``vecdot`` calls the
    same dot), then ``sqrt``. Not metered: ``d`` multiply-adds a row."""
    return np.sqrt(np.vecdot(x, x))


# ---------------------------------------------------------------------------
# Elementwise helpers (not metered — memory-bound, no MACs)


def relu(x: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise ``max(x, 0)``; dtype-preserving."""
    if out is None:
        return np.maximum(x, 0.0)
    return np.maximum(x, 0.0, out=out)


def relu_backward(z: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient through ReLU given pre-activation ``z``: runs
    :func:`repro.nn.activations.relu_grad` (+0.0 where ``z <= 0``)."""
    from ..nn.activations import relu_grad  # nn imports this module

    return relu_grad(z, grad_out)


def add_bias(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-broadcast bias add."""
    return z + b
