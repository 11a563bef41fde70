"""Dtype policies and the workspace buffer arena."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.policy import (
    FAST,
    REFERENCE,
    available_policies,
    resolve_policy,
)
from repro.kernels.workspace import Workspace

UNKNOWN = object()  # "resolve_policy rejects this name"


class TestDtypePolicy:
    def test_reference_policy(self):
        assert REFERENCE.dtype == np.float64
        assert not REFERENCE.use_workspace

    def test_fast_policy(self):
        assert FAST.dtype == np.float32
        assert FAST.use_workspace
        assert FAST.grad_tol > REFERENCE.grad_tol

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("reference", REFERENCE),
            ("float64", UNKNOWN),
            ("fast", FAST),
            ("float32", UNKNOWN),
            (None, REFERENCE),
        ],
    )
    def test_resolve_by_name(self, name, expected):
        # Two policies, two names: a dtype's name is not a policy's.
        if expected is UNKNOWN:
            with pytest.raises(ValueError, match="unknown dtype policy"):
                resolve_policy(name)
        else:
            assert resolve_policy(name) is expected

    def test_resolve_passthrough(self):
        assert resolve_policy(FAST) is FAST

    def test_resolve_unknown_raises(self):
        with pytest.raises(ValueError, match="reference"):
            resolve_policy("float16")

    def test_available_policies(self):
        assert available_policies() == ["fast", "reference"]

    def test_cast_converts_and_is_noop_on_match(self, rng):
        x = rng.standard_normal((4, 3))
        assert REFERENCE.cast(x) is x
        y = FAST.cast(x)
        assert y.dtype == np.float32
        assert y.flags["C_CONTIGUOUS"]


class TestWorkspace:
    def test_first_request_allocates_then_reuses(self):
        ws = Workspace()
        a = ws.buffer(("layer", "z"), (8, 4), np.float64)
        assert a.shape == (8, 4)
        assert ws.misses == 1 and ws.hits == 0
        b = ws.buffer(("layer", "z"), (8, 4), np.float64)
        assert b.base is a.base
        assert ws.hits == 1

    def test_smaller_request_reuses_capacity(self):
        # Subgraph sizes jitter per iteration; a shrink must not allocate.
        ws = Workspace()
        big = ws.buffer(("k",), (10, 4), np.float32)
        small = ws.buffer(("k",), (7, 4), np.float32)
        assert small.base is big.base
        assert small.shape == (7, 4)
        assert ws.stats()["misses"] == 1

    def test_growth_reallocates(self):
        ws = Workspace()
        ws.buffer(("k",), (4, 4), np.float64)
        ws.buffer(("k",), (6, 4), np.float64)
        assert ws.misses == 2
        assert ws.num_buffers == 1

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        ws.buffer(("k",), (4, 4), np.float64)
        out = ws.buffer(("k",), (4, 4), np.float32)
        assert out.dtype == np.float32
        assert ws.misses == 2

    def test_distinct_keys_do_not_alias(self):
        ws = Workspace()
        a = ws.buffer(("a",), (3, 3), np.float64)
        b = ws.buffer(("b",), (3, 3), np.float64)
        a[...] = 1.0
        b[...] = 2.0
        assert float(a.sum()) == 9.0
        assert ws.num_buffers == 2

    def test_stats_and_reset(self):
        ws = Workspace()
        ws.buffer(("k",), (2, 2), np.float64)
        stats = ws.stats()
        assert stats["bytes_allocated"] == 4 * 8
        assert stats["bytes_held"] == 4 * 8
        ws.reset_stats()
        assert ws.hits == ws.misses == ws.bytes_allocated == 0
        assert ws.num_buffers == 1  # buffers survive a stats reset
        ws.clear()
        assert ws.num_buffers == 0

    def test_scalar_shape(self):
        ws = Workspace()
        s = ws.buffer(("s",), (), np.float64)
        assert s.shape == ()
