"""Dtype policies: the float64 reference path and the float32 fast path.

A :class:`DtypePolicy` bundles everything a trainer/server needs to pick
a numeric regime in one object:

* ``dtype`` — the array dtype for features, parameters and activations
  (the reference policy's float64 results are bit-identical to the
  seed-era ones on fixed seeds);
* ``grad_eps`` / ``grad_tol`` — the finite-difference step and tolerance
  that :mod:`repro.nn.gradcheck` should use under this dtype (float32
  cannot resolve a 1e-6 step; the relaxed values are what the shared
  gradcheck harness parametrizes over).

Policies are immutable and addressed by name through
:func:`resolve_policy` (``TrainConfig.dtype_policy`` stores the name).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DtypePolicy", "REFERENCE", "FAST", "resolve_policy", "available_policies"]


@dataclass(frozen=True)
class DtypePolicy:
    """Numeric regime: dtype + gradcheck tolerances."""

    name: str
    dtype: np.dtype
    grad_eps: float
    grad_tol: float

    def cast(self, x: np.ndarray) -> np.ndarray:
        """``x`` in this policy's dtype (no copy when already there)."""
        return np.ascontiguousarray(x, dtype=self.dtype)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize


#: Seed-equivalent float64 path: today's tolerances, bit-identical
#: training trajectories.
REFERENCE = DtypePolicy(
    name="reference",
    dtype=np.dtype(np.float64),
    grad_eps=1e-6,
    grad_tol=1e-4,
)

#: float32 fast path (half the memory traffic of the reference path;
#: tolerances relaxed to what float32 resolution allows).
FAST = DtypePolicy(
    name="fast",
    dtype=np.dtype(np.float32),
    grad_eps=1e-2,
    grad_tol=4e-2,
)

_POLICIES = {"reference": REFERENCE, "fast": FAST}


def resolve_policy(policy: "DtypePolicy | str | None") -> DtypePolicy:
    """Map a policy object, name or ``None`` (→ reference) to a policy."""
    if policy is None:
        return REFERENCE
    if isinstance(policy, DtypePolicy):
        return policy
    try:
        return _POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown dtype policy {policy!r}; available: {available_policies()}"
        ) from None


def available_policies() -> list[str]:
    """Sorted names accepted by :func:`resolve_policy`."""
    return sorted(_POLICIES)
