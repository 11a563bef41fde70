"""The observability kill switch.

Instrumentation is **off by default**: the hot paths (trainer iterations,
Dashboard pops, SpMM chunks) are the very code the ROADMAP promises to
keep "as fast as the hardware allows", so recording must cost nothing
unless explicitly requested. Every span/counter entry point checks
``GATE.enabled`` — a single attribute read — and short-circuits to a
shared no-op when it is ``False``. The disabled path allocates nothing
(see ``tests/obs/test_overhead.py`` for the enforced guarantees).

The flag lives in its own tiny module so that :mod:`repro.obs.trace` and
:mod:`repro.obs.metrics` can share it without importing each other.
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["GATE", "is_enabled", "set_enabled", "enabled"]


class _Gate:
    """Mutable holder for the process-wide enable flag."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


GATE = _Gate()


def is_enabled() -> bool:
    """True when instrumentation is recording."""
    return GATE.enabled


def set_enabled(on: bool) -> None:
    """Turn instrumentation on or off process-wide."""
    GATE.enabled = bool(on)


@contextmanager
def enabled(on: bool = True):
    """Scoped enable/disable; restores the previous state on exit.

    The bench harness and tests use this so a failing assertion never
    leaves instrumentation switched on for unrelated code::

        with obs.enabled():
            trainer.train()
    """
    prev = GATE.enabled
    GATE.enabled = bool(on)
    try:
        yield
    finally:
        GATE.enabled = prev
