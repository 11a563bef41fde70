"""Dtype policies: the float64 reference and float32 fast regimes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.policy import (
    FAST,
    REFERENCE,
    available_policies,
    resolve_policy,
)

UNKNOWN = object()  # "resolve_policy rejects this name"


class TestDtypePolicy:
    def test_reference_policy(self):
        assert REFERENCE.dtype == np.float64

    def test_fast_policy(self):
        assert FAST.dtype == np.float32
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

