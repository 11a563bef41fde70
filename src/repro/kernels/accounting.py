"""Centralized flop/byte/time accounting for the kernel layer.

Every GEMM and SpMM dispatched through :mod:`repro.kernels.ops` reports
here, which makes this module the *single source of truth* for compute
cost in the repo: the ``repro.obs`` counters (``gemm.flops``,
``spmm.flops``, ...), the trainer's per-iteration counters (via
:func:`capture`, priced after the run by
:mod:`repro.experiments.repricing`), the roofline and the kernel
benchmarks all read the same numbers.
Before this layer existed the spmm flop count lived in
``propagation/spmm.py`` and the gemm count was re-derived analytically in
``train/trainer.py``; both now come from the one place that actually ran
the kernels.

Conventions (shared with :mod:`repro.analysis.complexity`):

* GEMM ``(m, k) @ (k, n)`` costs ``2 * m * k * n`` flops
  (multiply + add per MAC);
* SpMM over ``nnz`` stored edges and ``f`` feature columns costs
  ``2 * nnz * f`` flops (the gather-accumulate counted as one
  multiply-add per edge-feature, matching the paper's Section V count).

Accounting is **always on** for the process-wide :data:`TOTALS` (a few
float adds and two ``perf_counter`` reads per kernel call — negligible
next to any real matmul); the :mod:`repro.obs` metrics are only written
while obs instrumentation is enabled, preserving its kill-switch
guarantee.

Beside the totals every call lands in a per-:class:`ShapeClass` bucket
(:data:`PER_CLASS`): the log-bucketed shape, dtype and call variant are
the key the measured roofline (:mod:`repro.kernels.roofline`) places
call sites by.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from ..obs import is_enabled as _obs_enabled
from ..obs import metrics as _obs_metrics

__all__ = [
    "ShapeClass",
    "KernelCounters",
    "ClassCounters",
    "TOTALS",
    "PER_CLASS",
    "capture",
    "record_gemm",
    "record_spmm",
    "reset_totals",
    "per_class_snapshot",
    "gemm_flop_count",
    "spmm_flop_count",
    "gemm_bytes_moved",
    "spmm_bytes_moved",
]


def gemm_flop_count(m: int, k: int, n: int) -> float:
    """Flops of one ``(m, k) @ (k, n)`` dense multiply."""
    return 2.0 * m * k * n


def spmm_flop_count(nnz: int, cols: int) -> float:
    """Flops of one sparse row-gather-sum over ``nnz`` edges, ``cols`` wide."""
    return 2.0 * nnz * cols


def gemm_bytes_moved(m: int, k: int, n: int, itemsize: int) -> float:
    """Modeled minimum memory traffic of one dense multiply.

    Each operand read once, the result written once — the compulsory
    traffic a perfect cache would incur. Real traffic is higher when
    ``k``/``n`` exceed cache, but the roofline's operational-intensity
    axis conventionally uses this lower bound.
    """
    return float(itemsize) * (m * k + k * n + m * n)


def spmm_bytes_moved(rows: int, nnz: int, cols: int, itemsize: int) -> float:
    """Modeled memory traffic of one CSR neighbor-sum ``A @ x``.

    Structure reads (``indptr``: int64, ``indices``: per-edge int32/64 —
    modeled at 8 bytes to match the repo's int64 CSR arrays), one gathered
    feature row per edge, and the dense result written once.
    """
    structure = 8.0 * (rows + 1) + 8.0 * nnz
    gathered = float(itemsize) * nnz * cols
    result = float(itemsize) * rows * cols
    return structure + gathered + result


def _log2_bucket(x: int) -> int:
    """``ceil(log2(x))`` for x >= 1 (0 for x <= 1): the size bucket."""
    return max(0, int(x) - 1).bit_length()


def _density_bucket(nnz: int, rows: int) -> int:
    """``floor(log10(nnz / rows^2))`` — the sparsity-density decade."""
    if rows <= 0 or nnz <= 0:
        return -12
    density = nnz / (float(rows) * float(rows))
    return int(math.floor(math.log10(max(density, 1e-12))))


@dataclass(frozen=True)
class ShapeClass:
    """One accounting key: op, log-bucketed dims, dtype and call variant.

    Bucketing maps the size jitter of sampled subgraphs to one key.
    ``variant`` is how the call gets its result memory — ``"out"``
    (caller buffer) or ``"alloc"`` (fresh allocation) — or, for the
    block kernels, which one ran (``"gather"`` / ``"scatter"``).

    :meth:`for_gemm` / :meth:`for_spmm` hand out one shared instance per
    class (a memo on the buckets, dtype and variant), so a dispatch pays
    for the dtype name and the ``key`` string once per class, not once
    per call.
    """

    op: str
    buckets: tuple[int, ...]
    dtype: str
    variant: str = "alloc"

    @cached_property
    def key(self) -> str:
        dims = ".".join(str(b) for b in self.buckets)
        return f"{self.op}[{dims}|{self.dtype}|{self.variant}]"

    @classmethod
    def _shared(cls, op: str, buckets: tuple[int, ...], dtype, variant: str) -> "ShapeClass":
        memo = (op, buckets, dtype, variant)
        sc = _SHAPE_CLASSES.get(memo)
        if sc is None:
            sc = _SHAPE_CLASSES[memo] = cls(op, buckets, np.dtype(dtype).name, variant)
        return sc

    @classmethod
    def for_gemm(
        cls, m: int, k: int, n: int, dtype: np.dtype, *, variant: str = "alloc"
    ) -> "ShapeClass":
        buckets = (_log2_bucket(m), _log2_bucket(k), _log2_bucket(n))
        return cls._shared("gemm", buckets, dtype, variant)

    @classmethod
    def for_spmm(
        cls, rows: int, nnz: int, cols: int, dtype: np.dtype, *, variant: str = "alloc"
    ) -> "ShapeClass":
        buckets = (_log2_bucket(rows), _log2_bucket(cols), _density_bucket(nnz, rows))
        return cls._shared("spmm", buckets, dtype, variant)


#: (op, buckets, dtype as passed, variant) -> the class's one instance.
#: A pure memo of immutable values.
_SHAPE_CLASSES: dict[tuple, ShapeClass] = {}


class KernelCounters:
    """One bucket of kernel-cost counters (flops, calls, wall seconds)."""

    __slots__ = (
        "gemm_calls",
        "gemm_flops",
        "gemm_seconds",
        "spmm_calls",
        "spmm_flops",
        "spmm_seconds",
    )

    def __init__(self) -> None:
        self.gemm_calls = 0
        self.gemm_flops = 0.0
        self.gemm_seconds = 0.0
        self.spmm_calls = 0
        self.spmm_flops = 0.0
        self.spmm_seconds = 0.0

    def snapshot(self) -> dict[str, float]:
        """JSON-ready copy of every counter."""
        return {name: getattr(self, name) for name in self.__slots__}

    def reset(self) -> None:
        """Zero every counter."""
        self.__init__()

    @property
    def total_flops(self) -> float:
        return self.gemm_flops + self.spmm_flops


class ClassCounters:
    """Per-shape-class cost bucket: flops, modeled bytes, wall seconds.

    One instance per :class:`ShapeClass` key accumulates in
    :data:`PER_CLASS`; :mod:`repro.kernels.roofline` reads these to place
    every call site on the achieved-vs-peak chart.
    """

    __slots__ = ("op", "calls", "flops", "bytes", "seconds")

    def __init__(self, op: str = "") -> None:
        self.op = op
        self.calls = 0
        self.flops = 0.0
        self.bytes = 0.0
        self.seconds = 0.0

    def snapshot(self) -> dict[str, float]:
        """JSON-ready copy of this bucket's counters (plus its op)."""
        return {
            "op": self.op,
            "calls": self.calls,
            "flops": self.flops,
            "bytes": self.bytes,
            "seconds": self.seconds,
        }


#: Process-wide totals, always accumulating (cheap), never auto-reset.
TOTALS = KernelCounters()

#: Shape-class key -> :class:`ClassCounters`. Populated by every kernel
#: call dispatched with a class key; reset with :func:`reset_totals`.
PER_CLASS: dict[str, ClassCounters] = {}

# Active capture scopes; every record fans out to all of them plus TOTALS.
_CAPTURES: list[KernelCounters] = []

_perf_counter = time.perf_counter


def _record_class(
    op: str, class_key: str, flops: float, bytes_moved: float, seconds: float
) -> None:
    bucket = PER_CLASS.get(class_key)
    if bucket is None:
        bucket = PER_CLASS[class_key] = ClassCounters(op)
    bucket.calls += 1
    bucket.flops += flops
    bucket.bytes += bytes_moved
    bucket.seconds += seconds


def record_gemm(
    m: int,
    k: int,
    n: int,
    seconds: float,
    *,
    class_key: str | None = None,
    itemsize: int = 8,
) -> None:
    """Account one dense multiply of shape ``(m, k) @ (k, n)``.

    ``class_key``/``itemsize`` additionally feed the per-shape-class
    roofline buckets; callers outside the dispatch layer may omit them.
    """
    flops = gemm_flop_count(m, k, n)
    TOTALS.gemm_calls += 1
    TOTALS.gemm_flops += flops
    TOTALS.gemm_seconds += seconds
    for cap in _CAPTURES:
        cap.gemm_calls += 1
        cap.gemm_flops += flops
        cap.gemm_seconds += seconds
    if class_key is not None:
        _record_class(
            "gemm", class_key, flops, gemm_bytes_moved(m, k, n, itemsize), seconds
        )
    if _obs_enabled():
        _obs_metrics.inc("gemm.ops")
        _obs_metrics.inc("gemm.flops", flops)
        _obs_metrics.inc("gemm.seconds", seconds)


def record_spmm(
    nnz: int,
    cols: int,
    seconds: float,
    *,
    rows: int = 0,
    class_key: str | None = None,
    itemsize: int = 8,
) -> None:
    """Account one sparse aggregation over ``nnz`` edges, ``cols`` wide."""
    flops = spmm_flop_count(nnz, cols)
    TOTALS.spmm_calls += 1
    TOTALS.spmm_flops += flops
    TOTALS.spmm_seconds += seconds
    for cap in _CAPTURES:
        cap.spmm_calls += 1
        cap.spmm_flops += flops
        cap.spmm_seconds += seconds
    if class_key is not None:
        _record_class(
            "spmm",
            class_key,
            flops,
            spmm_bytes_moved(rows, nnz, cols, itemsize),
            seconds,
        )
    if _obs_enabled():
        _obs_metrics.inc("spmm.ops")
        _obs_metrics.inc("spmm.flops", flops)
        _obs_metrics.inc("spmm.seconds", seconds)


def per_class_snapshot() -> dict[str, dict[str, float]]:
    """JSON-ready copy of every per-shape-class bucket."""
    return {key: PER_CLASS[key].snapshot() for key in sorted(PER_CLASS)}


@contextmanager
def capture() -> Iterator[KernelCounters]:
    """Scope that accumulates the kernel costs of everything inside it.

    Scopes nest: an inner capture does not steal counts from an outer
    one — every active scope sees every kernel call. The trainer wraps
    each iteration's forward+backward in a capture and records the
    metered ``gemm_flops``, which the pricer charges through the Amdahl
    cost model after the run.
    """
    counters = KernelCounters()
    _CAPTURES.append(counters)
    try:
        yield counters
    finally:
        _CAPTURES.remove(counters)


def reset_totals() -> None:
    """Zero :data:`TOTALS` and :data:`PER_CLASS` (bench runners call this)."""
    TOTALS.reset()
    PER_CLASS.clear()
