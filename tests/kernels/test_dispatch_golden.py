"""Kernel dispatch, pinned: what a fixed call sequence leaves in the books.

``dispatch_golden.json`` was generated at commit c74582a — the last one
where every ``kernels.ops`` call rebuilt its ``ShapeClass`` and key
string — from the call sequence in :func:`_sequence`: every entry point,
every variant, both dtypes, explicit ``backend=`` / ``plan=``, both plan
modes (the sequence was recorded with a third, ``"reference"``, and a
``"blocked"`` backend; both ran what ``"fast"`` and a ``block_rows`` plan
run, so the books did not move), nested capture scopes, obs on. The
shape-class memo is a dispatch-cost change only, so the ``PER_CLASS``
keys and every ``TOTALS`` / capture / obs counter must come out equal
(seconds are wall time and are only required to add up). Regenerate
(only when an accounting change is intended)::

    PYTHONPATH=src python tests/kernels/test_dispatch_golden.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest

from repro import obs
from repro.graphs import edges_to_csr
from repro.kernels import accounting, autotune
from repro.kernels import ops as kernel_ops
from repro.kernels.autotune import STATIC_PLAN, ExecutionPlan, PlanCache, ShapeClass

GOLDEN = pathlib.Path(__file__).with_name("dispatch_golden.json")
COUNTED = ("gemm_calls", "gemm_flops", "spmm_calls", "spmm_flops")
OBS_COUNTERS = (
    "gemm.ops", "gemm.flops", "spmm.ops", "spmm.flops",
    "kernels.plan.hits", "kernels.plan.misses",
)


def _sequence(tmp_path) -> dict:
    """Run the fixed call sequence; return everything the books hold."""
    rng = np.random.default_rng(0)
    ring = np.arange(40)
    graph = edges_to_csr(np.stack([ring, (ring + 1) % 40], axis=1), 40)
    accounting.reset_totals()
    obs.reset()
    previous = autotune.set_plan_cache(PlanCache(tmp_path / "plans", persist=False))
    try:
        with obs.enabled(), accounting.capture() as outer:
            for dtype in (np.float64, np.float32):
                for m, k, n in ((1, 256, 64), (8, 256, 56), (1024, 16, 4), (1025, 16, 4), (3, 1, 1)):
                    a = rng.standard_normal((m, k)).astype(dtype)
                    b = rng.standard_normal((k, n)).astype(dtype)
                    kernel_ops.gemm(a, b)
                    kernel_ops.gemm(a, b, transient=True)
                    kernel_ops.gemm(a, b, out=np.empty((m, n), dtype=dtype))
                    kernel_ops.gemm(a, np.ascontiguousarray(b.T).T)  # the index's operand layout
                x = rng.standard_normal((40, 5)).astype(dtype)
                kernel_ops.spmm(graph, x)
                kernel_ops.spmm(graph, x, out=np.empty_like(x))
                kernel_ops.spmm_adjoint(graph, x, backend="numpy")
            with accounting.capture() as inner:
                a = rng.standard_normal((6, 3))
                acc = np.zeros((6, 6))
                kernel_ops.gemm_accumulate(acc, a, a.T)
                kernel_ops.gemm_accumulate(acc, a, a.T, scratch=np.empty((6, 6)))
                kernel_ops.gemm(a, a.T, plan=ExecutionPlan(block_rows=1024))
                kernel_ops.gemm(a, a.T, plan=ExecutionPlan(block_rows=2))
                take = np.array([0, 2, 2, 5])
                kernel_ops.gather_segment_sum(a, take, np.array([0, 1, 4]), 2)
                kernel_ops.scatter_add_rows(a[take], take, 6)
            for mode in ("fast", "auto", "fast"):
                with autotune.planning(mode):
                    for dtype in (np.float64, np.float32):
                        a = rng.standard_normal((300, 12)).astype(dtype)
                        for _ in range(3):
                            kernel_ops.gemm(a, a.T, transient=True)
                        kernel_ops.spmm(graph, rng.standard_normal((40, 3)).astype(dtype))
        counters = obs.metrics.snapshot()["counters"]
    finally:
        autotune.set_plan_cache(previous)
        obs.reset()
    return {
        "per_class": accounting.per_class_snapshot(),
        "totals": accounting.TOTALS.snapshot(),
        "outer": outer.snapshot(),
        "inner": inner.snapshot(),
        "obs": {name: counters.get(name, 0.0) for name in OBS_COUNTERS},
    }


def _pinned(books: dict) -> dict:
    """The part of the books that is a function of the calls alone."""
    return {
        "per_class": {
            key: {f: row[f] for f in ("op", "calls", "flops", "bytes")}
            for key, row in books["per_class"].items()
        },
        **{scope: {f: books[scope][f] for f in COUNTED} for scope in ("totals", "outer", "inner")},
        "obs": books["obs"],
    }


class TestDispatchGolden:
    def test_books_match_the_parent(self, tmp_path):
        books = _sequence(tmp_path)
        assert _pinned(books) == json.loads(GOLDEN.read_text())
        # Seconds are wall time: every call has some, and the per-class
        # buckets hold the same seconds as the totals.
        for op in ("gemm", "spmm"):
            per_class = sum(
                row["seconds"] for row in books["per_class"].values() if row["op"] == op
            )
            assert per_class == pytest.approx(books["totals"][f"{op}_seconds"])
            assert 0.0 < books["inner"][f"{op}_seconds"] < books["outer"][f"{op}_seconds"]


class TestShapeClassMemo:
    def test_one_instance_per_class(self):
        a = ShapeClass.for_gemm(1000, 16, 64, np.dtype(np.float32), variant="out")
        assert ShapeClass.for_gemm(1024, 16, 64, np.dtype(np.float32), variant="out") is a
        # dtype objects and scalar types name one class, with one key.
        assert ShapeClass.for_gemm(1000, 16, 64, np.float32, variant="out") == a
        assert a.key == "gemm[10.4.6|float32|out]"
        assert ShapeClass.for_gemm(1025, 16, 64, np.float32, variant="out") != a
        assert ShapeClass.for_gemm(1000, 16, 64, np.float64, variant="out") != a
        assert ShapeClass.for_gemm(1000, 16, 64, np.float32) != a

    def test_mode_switch_is_never_served_a_stale_plan(self, tmp_path, rng, monkeypatch):
        # The memo holds shape classes, which no mode or cache can
        # change; the plan is resolved on every call.
        a = rng.standard_normal((64, 8)).astype(np.float32)
        seen = []
        real = autotune.execute_gemm

        def spy(impl, plan, *args, **kwargs):
            seen.append(plan)
            return real(impl, plan, *args, **kwargs)

        tuned = ExecutionPlan(block_rows=16, source="tuned")
        key = ShapeClass.for_gemm(64, 8, 64, a.dtype).key
        first, second = PlanCache(tmp_path / "a", persist=False), PlanCache(tmp_path / "b")
        first.plans[key] = tuned
        monkeypatch.setattr(autotune, "execute_gemm", spy)
        previous = autotune.set_plan_cache(first)
        try:
            kernel_ops.gemm(a, a.T)  # warms the memo in fast mode
            with autotune.planning("auto"):
                kernel_ops.gemm(a, a.T)
                autotune.set_plan_cache(second)  # a reloaded table
                second.plans[key] = STATIC_PLAN
                kernel_ops.gemm(a, a.T)
            with autotune.planning("fast"):
                kernel_ops.gemm(a, a.T)
            kernel_ops.gemm(a, a.T)
        finally:
            autotune.set_plan_cache(previous)
        assert [p.source for p in seen] == ["static", "tuned", "static", "static", "static"]
        assert seen[1] is tuned and seen[3] is STATIC_PLAN


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = _pinned(_sequence(pathlib.Path(tmp)))
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(pinned['per_class'])} shape classes)")
