"""repro.kernels — the unified compute-kernel layer.

Every GEMM and SpMM in the repo dispatches through this package
(Section V of the paper treats these two kernels as *the* performance
story; GraphVite/GOSH make the same architectural bet). The pieces:

* :mod:`repro.kernels.ops` — ``gemm`` / ``gemm_pair`` / ``gemm_accumulate``
  / ``spmm`` / ``spmm_adjoint`` / block gather-scatter / elementwise
  helpers, all metered; a call validates, names its shape class, runs
  the one BLAS GEMM or scipy CSR SpMM and reports — it plans nothing
  (``gemm_pair`` runs two independent GEMMs, and ``gemm`` one GEMM's
  two row halves, on two threads when they are wide and OpenBLAS runs
  one thread per call);
* :mod:`repro.kernels.sparse` — the weak-ref-memoized scipy CSR
  adjacency every SpMM multiplies by, and the numpy ``add.reduceat``
  segment sum (the baselines' block aggregation and the SpMM oracle);
* :mod:`repro.kernels.roofline` — achieved flops/s and bytes/s per shape
  class vs calibrated machine peaks, for the ``roofline-report`` CLI;
* :mod:`repro.kernels.policy` — :data:`~repro.kernels.policy.REFERENCE`
  (float64, bit-identical to the seed) and
  :data:`~repro.kernels.policy.FAST` (float32) dtype policies;
* :mod:`repro.kernels.accounting` — centralized flop/time counters that
  feed ``repro.obs`` metrics and the simulated-time cost model from one
  place, totalled and per log-bucketed
  :class:`~repro.kernels.accounting.ShapeClass` (the roofline's key).

See the "Compute kernels" section of ``docs/architecture.md``.
"""

from . import accounting, ops, policy, roofline, sparse
from .accounting import KernelCounters, ShapeClass, capture
from .sparse import adjacency_cache_stats, adjacency_matrix
from .ops import (
    add_bias,
    gather_segment_sum,
    gemm,
    gemm_accumulate,
    gemm_pair,
    relu,
    relu_backward,
    scatter_add_rows,
    spmm,
    spmm_adjoint,
)
from .policy import FAST, REFERENCE, DtypePolicy, available_policies, resolve_policy

__all__ = [
    "accounting",
    "ops",
    "policy",
    "roofline",
    "sparse",
    "KernelCounters",
    "capture",
    "ShapeClass",
    "adjacency_cache_stats",
    "adjacency_matrix",
    "gemm",
    "gemm_pair",
    "gemm_accumulate",
    "spmm",
    "spmm_adjoint",
    "gather_segment_sum",
    "scatter_add_rows",
    "relu",
    "relu_backward",
    "add_bias",
    "DtypePolicy",
    "REFERENCE",
    "FAST",
    "resolve_policy",
    "available_policies",
]
