"""Kernel dispatch, pinned: what a fixed call sequence leaves in the books.

``dispatch_golden.json`` was generated at commit c74582a — the last one
where every ``kernels.ops`` call rebuilt its ``ShapeClass`` and key
string — from the call sequence in :func:`_sequence`: every entry point,
both variants, both dtypes, nested capture scopes, obs on. (It was
recorded with plan modes, ``plan=``, a ``"transient"`` variant, an
``out=`` SpMM and a ``backend="numpy"`` adjoint in the sequence; an
SpMM's books depend on neither of the last two, and when the rest were
deleted the
file was *derived*, not re-recorded: every ``…|transient]`` bucket
folded into its ``…|alloc]`` twin, the two plan-table counters dropped,
totals and capture scopes byte for byte what they were.) The
``PER_CLASS`` keys and every ``TOTALS`` / capture / obs counter must
come out equal (seconds are wall time and are only required to add up).
Regenerate (only when an accounting change is intended)::

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
from repro.kernels import accounting
from repro.kernels import ops as kernel_ops
from repro.kernels.accounting import ShapeClass

GOLDEN = pathlib.Path(__file__).with_name("dispatch_golden.json")
COUNTED = ("gemm_calls", "gemm_flops", "spmm_calls", "spmm_flops")
OBS_COUNTERS = ("gemm.ops", "gemm.flops", "spmm.ops", "spmm.flops")


def _sequence() -> dict:
    """Run the fixed call sequence; return everything the books hold."""
    rng = np.random.default_rng(0)
    ring = np.arange(40)
    graph = edges_to_csr(np.stack([ring, (ring + 1) % 40], axis=1), 40)
    accounting.reset_totals()
    obs.reset()
    try:
        with obs.enabled(), accounting.capture() as outer:
            for dtype in (np.float64, np.float32):
                for m, k, n in ((1, 256, 64), (8, 256, 56), (1024, 16, 4), (1025, 16, 4), (3, 1, 1)):
                    a = rng.standard_normal((m, k)).astype(dtype)
                    b = rng.standard_normal((k, n)).astype(dtype)
                    kernel_ops.gemm(a, b)
                    kernel_ops.gemm(a, b)
                    kernel_ops.gemm(a, b, out=np.empty((m, n), dtype=dtype))
                    kernel_ops.gemm(a, np.ascontiguousarray(b.T).T)  # the index's operand layout
                x = rng.standard_normal((40, 5)).astype(dtype)
                kernel_ops.spmm(graph, x)
                kernel_ops.spmm(graph, x)  # an SpMM's class has no out variant
                kernel_ops.spmm_adjoint(graph, x)
            with accounting.capture() as inner:
                a = rng.standard_normal((6, 3))
                acc = np.zeros((6, 6))
                kernel_ops.gemm_accumulate(acc, a, a.T)
                kernel_ops.gemm(a, a.T, out=np.empty((6, 6)))
                kernel_ops.gemm(a, a.T)
                kernel_ops.gemm(a, a.T)
                take = np.array([0, 2, 2, 5])
                kernel_ops.gather_segment_sum(a, take, np.array([0, 1, 4]), 2)
                kernel_ops.scatter_add_rows(a[take], take, 6)
            for _round in range(3):
                for dtype in (np.float64, np.float32):
                    a = rng.standard_normal((300, 12)).astype(dtype)
                    for _ in range(3):
                        kernel_ops.gemm(a, a.T)
                    kernel_ops.spmm(graph, rng.standard_normal((40, 3)).astype(dtype))
        counters = obs.metrics.snapshot()["counters"]
    finally:
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
    def test_books_match_the_parent(self):
        books = _sequence()
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    pinned = _pinned(_sequence())
    GOLDEN.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(pinned['per_class'])} shape classes)")
