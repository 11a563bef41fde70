"""Plan-based autotuned kernel dispatch.

The Harvard embedding-dimension study (arXiv:2212.00827) observes that
the optimal execution strategy for GCN compute flips with the shape
triple ``(n, d, f)`` — no single backend × blocking × workspace choice
wins across the workloads this repo runs. This module turns the static
dispatch of :mod:`repro.kernels.ops` into *plan-based* dispatch:

* :class:`ShapeClass` — a log-bucketed shape descriptor (``m``/``k``/``n``
  for GEMM; vertices/columns/sparsity-density for SpMM) plus the dtype
  and call variant, so "the same kind of call" maps to one tuning key
  even though sampled-subgraph sizes jitter iteration to iteration;
* :class:`ExecutionPlan` — what to do for one shape class: which
  registry backend, row-blocking factor, and workspace strategy
  (``"fresh"`` allocation vs the shared arena for transient results);
* :class:`Tuner` — microbenchmarks the candidate plans *on the live
  operands of the first call* in a shape class, drops candidates whose
  output is not numerically acceptable, and picks the fastest;
* :class:`PlanCache` — the per-process plan table, persisted to disk
  keyed by :func:`repro.obs.record.fingerprint_key` so later runs on
  the same environment skip tuning entirely.

One ambient **plan mode** with two states governs resolution:

* ``"fast"`` (the default) — static dispatch: the default backend,
  unblocked, fresh allocations. Bit-for-bit the pre-autotune behavior.
* ``"auto"`` — entered only through the :func:`planning` scope: resolve
  through the :class:`PlanCache`, tuning at first use. **Only float32
  calls are tuned; float64 always pins the static plan**, even in auto
  mode: the reference dtype policy's bit-identity guarantee is
  structural, not best-effort (blocked BLAS and the numpy SpMM are not
  bit-identical to the defaults — measured, not assumed).

So a run's kernel regime is its ``dtype_policy`` plus whether it ran
inside ``planning("auto")``; autotuned float32 training is
``with planning("auto"): trainer.train()``. Explicit ``backend=`` or
``plan=`` arguments at a call site always win over the mode. Tuning
microbenchmarks run on raw backend implementations and are **never**
recorded by :mod:`repro.kernels.accounting` — the flop account only
ever sees real work.

The **arena** workspace strategy returns memory owned by a shared
:class:`~repro.kernels.workspace.Workspace`, which the *next* call of
the same shape class will reuse. It therefore only applies to calls the
caller has marked ``transient=True`` — "I consume this result before my
next same-shaped kernel call" (the serving index's similarity blocks,
for example). Unmarked calls always get fresh or caller-provided
memory.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from ..obs import is_enabled as _obs_enabled
from ..obs import metrics as _obs_metrics
from ..obs.record import environment_fingerprint, fingerprint_key
from .backends import KernelBackend, available_backends, get_backend
from .workspace import Workspace

__all__ = [
    "PLAN_MODES",
    "PLAN_SCHEMA_VERSION",
    "ShapeClass",
    "ExecutionPlan",
    "STATIC_PLAN",
    "Tuner",
    "PlanCache",
    "gemm_recipe",
    "spmm_recipe",
    "plan_mode",
    "planning",
    "get_plan_cache",
    "set_plan_cache",
    "default_cache_dir",
]

#: The two states of the ambient plan mode: static dispatch (``"fast"``,
#: the default) and ``"auto"``, which only :func:`planning` enters.
PLAN_MODES = ("auto", "fast")

#: Bumped when the persisted plan-table shape changes incompatibly.
PLAN_SCHEMA_VERSION = 1

#: Environment variable overriding the on-disk plan-table directory.
CACHE_DIR_ENV = "REPRO_KERNEL_PLAN_CACHE"


def default_cache_dir() -> pathlib.Path:
    """Where plan tables persist: ``$REPRO_KERNEL_PLAN_CACHE`` or
    ``~/.cache/repro/kernel-plans``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return pathlib.Path(override).expanduser()
    return pathlib.Path("~/.cache/repro/kernel-plans").expanduser()


# ---------------------------------------------------------------------------
# Shape classes


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
    """One tuning key: op, log-bucketed dims, dtype and call variant.

    ``variant`` captures how the call provides its result memory —
    ``"out"`` (caller buffer), ``"alloc"`` (fresh allocation) or
    ``"transient"`` (caller marked the result short-lived) — because the
    winning plan genuinely differs between them: the arena strategy only
    exists for transient calls, and blocking pays off mainly when the
    result memory is warm.

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
#: Pure memo of immutable values: independent of plan mode and plan cache.
_SHAPE_CLASSES: dict[tuple, ShapeClass] = {}


# ---------------------------------------------------------------------------
# Execution plans


@dataclass(frozen=True)
class ExecutionPlan:
    """How to run one shape class.

    ``backend=None`` means the registry default; ``block_rows=0`` means
    unblocked; ``workspace`` is ``"fresh"`` (allocate/out= as given) or
    ``"arena"`` (transient results land in the shared arena buffer).
    ``source`` records where the plan came from — purely diagnostic.
    """

    backend: Optional[str] = None
    block_rows: int = 0
    workspace: str = "fresh"
    source: str = "static"

    def __post_init__(self) -> None:
        # A negative panel height would step the row loop backwards over
        # nothing and hand back an unwritten buffer; a plan table on disk
        # is outside input (PlanCache drops the entry as malformed).
        if self.block_rows < 0:
            raise ValueError(f"block_rows must be >= 0, got {self.block_rows}")

    def as_dict(self) -> dict:
        """JSON-ready form, inverse of :meth:`from_dict`."""
        return {
            "backend": self.backend,
            "block_rows": self.block_rows,
            "workspace": self.workspace,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExecutionPlan":
        backend = d.get("backend")
        return cls(
            backend=None if backend is None else str(backend),
            block_rows=int(d.get("block_rows", 0)),
            workspace=str(d.get("workspace", "fresh")),
            source=str(d.get("source", "tuned")),
        )

    def describe(self) -> str:
        """Compact human label, e.g. ``default+block1024+arena``."""
        parts = [self.backend or "default"]
        if self.block_rows:
            parts.append(f"block{self.block_rows}")
        if self.workspace != "fresh":
            parts.append(self.workspace)
        return "+".join(parts)


#: The bit-identical plan: default backend, unblocked, fresh memory —
#: literally the pre-autotune dispatch sequence. What static mode runs,
#: and what float64 is pinned to under ``"auto"``.
STATIC_PLAN = ExecutionPlan(source="static")


def _gemm_candidates(variant: str) -> list[ExecutionPlan]:
    """Candidate plans for one float32 GEMM shape class."""
    plans = [ExecutionPlan(source="tuned")]
    if variant == "out":
        plans += [
            ExecutionPlan(block_rows=b, source="tuned") for b in (256, 1024, 4096)
        ]
    elif variant == "transient":
        plans += [
            ExecutionPlan(workspace="arena", source="tuned"),
            ExecutionPlan(block_rows=256, workspace="arena", source="tuned"),
            ExecutionPlan(block_rows=1024, workspace="arena", source="tuned"),
        ]
    else:  # plain allocation: blocking into cold memory rarely pays,
        # but let the tuner check one blocked variant anyway.
        plans.append(ExecutionPlan(block_rows=1024, source="tuned"))
    return plans


# ---------------------------------------------------------------------------
# Plan execution (shared by dispatch and the tuner's microbenchmarks)

#: Arena behind the ``"arena"`` workspace strategy. Keyed by shape
#: class, capacity-matched: same-class transient calls reuse one buffer.
_ARENA = Workspace()


def transient_arena() -> Workspace:
    """The shared arena backing ``workspace="arena"`` plans (stats/tests)."""
    return _ARENA


def execute_gemm(
    impl: KernelBackend,
    plan: ExecutionPlan,
    a: np.ndarray,
    b: np.ndarray,
    out: Optional[np.ndarray],
    *,
    transient: bool = False,
) -> np.ndarray:
    """Run ``a @ b`` under ``plan`` (blocking + workspace strategy)."""
    m, n = a.shape[0], b.shape[1]
    if out is None and transient and plan.workspace == "arena":
        out = _ARENA.buffer(("gemm", n, a.dtype.str), (m, n), a.dtype)
    if plan.block_rows and m > plan.block_rows:
        if out is None:
            out = np.empty((m, n), dtype=np.result_type(a, b))
        step = plan.block_rows
        for i in range(0, m, step):
            impl.gemm(a[i : i + step], b, out[i : i + step])
        return out
    return impl.gemm(a, b, out)


def gemm_recipe(a: np.ndarray, b: np.ndarray, variant: str):
    """What tuning one GEMM class takes: ``(candidates, run, flops, shape)``."""
    m, k, n = a.shape[0], a.shape[1], b.shape[1]
    # An "out" call's candidates write a probe scratch standing in for
    # the caller's buffer: the tuner never touches real caller memory.
    out = np.empty((m, n), dtype=a.dtype) if variant == "out" else None

    def run(p: ExecutionPlan) -> np.ndarray:
        # Timed exactly as dispatch would run it: arena plans land in the
        # shared arena buffer, fresh-workspace plans pay the allocation.
        return execute_gemm(
            get_backend(p.backend), p, a, b, out, transient=variant == "transient"
        )

    return _gemm_candidates(variant), run, 2.0 * m * k * n, (m, k, n)


def spmm_recipe(graph, x: np.ndarray):
    """What tuning one SpMM class takes: the backend is the only axis."""
    candidates = [ExecutionPlan(backend=n, source="tuned") for n in ("scipy", "numpy")]
    nnz, cols = graph.num_edges_directed, x.shape[1]

    def run(p: ExecutionPlan) -> np.ndarray:
        return get_backend(p.backend).spmm(graph, x, None)

    return candidates, run, 2.0 * nnz * cols, (graph.num_vertices, nnz, cols)


# ---------------------------------------------------------------------------
# Tuner


class Tuner:
    """Microbenchmarks candidate plans on live operands; picks the winner.

    ``timer`` is injectable so tests can drive deterministic choices;
    ``repeats``/``warmup`` bound the first-use cost (warmup also doubles
    as the correctness probe: candidates whose output strays from the
    default plan's beyond ``rtol``/``atol`` are dropped, so a tuned plan
    can never be numerically worse than the fast policy's tolerance).
    ``microbenchmarks`` counts individual candidate timings — the cached
    second-run smoke test asserts it stays zero.
    """

    def __init__(
        self,
        *,
        repeats: int = 3,
        warmup: int = 1,
        timer=time.perf_counter,
        rtol: float = 2e-3,
        atol: float = 1e-4,
    ) -> None:
        self.repeats = repeats
        self.warmup = warmup
        self.timer = timer
        self.rtol = rtol
        self.atol = atol
        self.microbenchmarks = 0

    def _time(self, fn) -> float:
        best = math.inf
        for _ in range(max(1, self.repeats)):
            t0 = self.timer()
            fn()
            best = min(best, self.timer() - t0)
            self.microbenchmarks += 1
            if _obs_enabled():
                _obs_metrics.inc("kernels.tune.microbench")
        return best

    def pick(
        self,
        candidates: list[ExecutionPlan],
        run,
        *,
        flops: float,
        exact: bool = False,
    ) -> tuple[ExecutionPlan, dict]:
        """Fastest acceptable candidate plus its table entry.

        ``run(plan)`` executes one candidate and returns its result
        array. The first candidate is the baseline: with ``exact=True``
        later candidates must match it bit-for-bit, otherwise within
        ``rtol``/``atol``.
        """
        if not candidates:
            raise ValueError("no candidate plans to tune over")
        reference = np.asarray(run(candidates[0]))
        timings: dict[str, float] = {}
        kept: list[tuple[ExecutionPlan, float]] = []
        for plan in candidates:
            result = np.asarray(run(plan))  # warmup + correctness probe
            if result.shape != reference.shape:
                continue
            if exact:
                acceptable = bool(np.array_equal(result, reference))
            else:
                acceptable = bool(
                    np.allclose(result, reference, rtol=self.rtol, atol=self.atol)
                )
            if not acceptable:
                continue
            best = self._time(lambda p=plan: run(p))
            timings[plan.describe()] = best
            kept.append((plan, best))
        if not kept:  # every alternative failed the probe: stay static
            return STATIC_PLAN, {"plan": STATIC_PLAN.as_dict(), "timings_s": {}}
        winner, best_s = min(kept, key=lambda pair: pair[1])
        entry = {
            "plan": winner.as_dict(),
            "best_s": best_s,
            "tuned_flops_s": (flops / best_s) if best_s > 0 else None,
            "timings_s": timings,
            "candidates": len(candidates),
        }
        return winner, entry


# ---------------------------------------------------------------------------
# Plan cache


class PlanCache:
    """Shape class → :class:`ExecutionPlan`, persisted per environment.

    The on-disk table lives at ``<cache_dir>/plans-<fingerprint_key>.json``
    where the key digests the configuration part of the environment
    fingerprint (python/numpy/platform — never the git sha), so a table
    tuned once is reused by every later run on the same environment and
    never leaks across environments.

    An unreadable table is not fatal: resolution warns once and falls
    back to the default backend (static plans) until :meth:`clear`
    rebuilds the file — a corrupted cache degrades to the pre-autotune
    behavior, it cannot take training down.
    """

    def __init__(
        self,
        cache_dir: pathlib.Path | str | None = None,
        *,
        env: dict[str, str] | None = None,
        tuner: Tuner | None = None,
        persist: bool = True,
    ) -> None:
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else default_cache_dir()
        self.env = env or environment_fingerprint()
        self.key = fingerprint_key(self.env)
        self.tuner = tuner or Tuner()
        self.persist = persist
        self.plans: dict[str, ExecutionPlan] = {}
        self.entries: dict[str, dict] = {}
        self.load_failed = False
        self._loaded = False

    # -- persistence ---------------------------------------------------
    @property
    def path(self) -> pathlib.Path:
        return self.cache_dir / f"plans-{self.key}.json"

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if not self.path.exists():
            return
        try:
            payload = json.loads(self.path.read_text())
            table = payload["plans"]
            if not isinstance(table, dict):
                raise ValueError("plan table is not a mapping")
        except (OSError, ValueError, KeyError) as exc:
            self.load_failed = True
            warnings.warn(
                f"kernel plan cache {self.path} is unreadable ({exc}); "
                "falling back to the default backend — run "
                "`python -m repro.cli kernel-tune clear` to rebuild it",
                RuntimeWarning,
                stacklevel=3,
            )
            if _obs_enabled():
                _obs_metrics.inc("kernels.plan.load_failed")
            return
        known = set(available_backends())
        for key, entry in table.items():
            try:
                plan = ExecutionPlan.from_dict(entry["plan"])
            except (TypeError, KeyError, ValueError):
                warnings.warn(
                    f"kernel plan cache {self.path}: dropping malformed "
                    f"entry {key!r}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            if plan.backend is not None and plan.backend not in known:
                warnings.warn(
                    f"kernel plan cache {self.path}: entry {key!r} names "
                    f"unknown backend {plan.backend!r}; using the default "
                    "backend for that shape class",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            self.plans[key] = plan
            self.entries[key] = dict(entry)
        if _obs_enabled():
            _obs_metrics.inc("kernels.plan.loaded", len(self.plans))

    def save(self) -> pathlib.Path | None:
        """Write the table (atomic replace); returns the path or None."""
        if not self.persist:
            return None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": PLAN_SCHEMA_VERSION,
            "key": self.key,
            "env": dict(self.env),
            "plans": {
                key: dict(self.entries[key], plan=self.plans[key].as_dict())
                for key in sorted(self.plans)
            },
        }
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(self.path)
        return self.path

    def clear(self) -> int:
        """Drop the in-memory table and delete this environment's file.

        Returns the number of on-disk tables removed. Also resets the
        unreadable-cache latch so tuning resumes.
        """
        removed = 0
        if self.path.exists():
            self.path.unlink()
            removed = 1
        self.plans.clear()
        self.entries.clear()
        self.load_failed = False
        self._loaded = False
        return removed

    def tuned_entries(self) -> dict[str, dict]:
        """Entries with a measured tuned throughput (for the SLO rule)."""
        self._ensure_loaded()
        return {
            key: entry
            for key, entry in self.entries.items()
            if entry.get("tuned_flops_s")
        }

    # -- resolution ----------------------------------------------------
    def _lookup(self, sc: ShapeClass) -> ExecutionPlan | None:
        self._ensure_loaded()
        plan = self.plans.get(sc.key)
        if _obs_enabled():
            _obs_metrics.inc(
                "kernels.plan.hits" if plan is not None else "kernels.plan.misses"
            )
        return plan

    def _store(self, sc: ShapeClass, plan: ExecutionPlan, entry: dict) -> None:
        self.plans[sc.key] = plan
        self.entries[sc.key] = entry
        try:
            self.save()
        except OSError as exc:  # read-only cache dir: tune per process
            warnings.warn(
                f"could not persist kernel plan table to {self.path}: {exc}",
                RuntimeWarning,
                stacklevel=3,
            )

    def resolve(self, sc: ShapeClass, recipe, *operands) -> ExecutionPlan:
        """Plan for one call of class ``sc``, tuning on first use.

        ``recipe(*operands)`` — :func:`gemm_recipe` or
        :func:`spmm_recipe`, run only on a miss — returns the candidate
        plans, ``run(plan) -> result`` on the live operands, the call's
        flops and its exact shape.
        """
        if sc.dtype != "float32":
            # The reference (float64) regime is pinned bit-identical, and
            # no other dtype is on anybody's hot path — don't tune it.
            return STATIC_PLAN
        self._ensure_loaded()  # the latch below must see the load result
        if self.load_failed:
            return STATIC_PLAN
        plan = self._lookup(sc)
        if plan is not None:
            return plan
        candidates, run, flops, shape = recipe(*operands)
        plan, entry = self.tuner.pick(candidates, run, flops=flops)
        entry["shape"] = [int(d) for d in shape]
        entry["op"] = sc.op
        self._store(sc, plan, entry)
        return plan


# ---------------------------------------------------------------------------
# Process-wide mode + cache


_PLAN_MODE = "fast"
_PLAN_CACHE: PlanCache | None = None


def plan_mode() -> str:
    """The current process-wide plan mode."""
    return _PLAN_MODE


@contextmanager
def planning(mode: str) -> Iterator[None]:
    """Scoped plan mode — the one way to enter ``"auto"``; restores the
    previous mode on exit. Validates ``mode``."""
    global _PLAN_MODE
    if mode not in PLAN_MODES:
        raise ValueError(f"kernel plan mode must be one of {PLAN_MODES}, got {mode!r}")
    previous, _PLAN_MODE = _PLAN_MODE, mode
    try:
        yield
    finally:
        _PLAN_MODE = previous


def get_plan_cache() -> PlanCache:
    """The process-wide plan cache (created on first use)."""
    global _PLAN_CACHE
    if _PLAN_CACHE is None:
        _PLAN_CACHE = PlanCache()
    return _PLAN_CACHE


def set_plan_cache(cache: PlanCache | None) -> PlanCache | None:
    """Swap the process-wide plan cache; returns the previous one."""
    global _PLAN_CACHE
    previous = _PLAN_CACHE
    _PLAN_CACHE = cache
    return previous
