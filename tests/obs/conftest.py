"""Shared fixtures for the observability tests."""

from __future__ import annotations

import contextlib

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def clean_obs():
    """Every obs test starts and ends with a disabled, empty layer."""
    obs.set_enabled(False)
    obs.reset()
    yield
    obs.set_enabled(False)
    obs.reset()


class FakeClock:
    """Deterministic clock: each read advances by a fixed step."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        now = self.t
        self.t += self.step
        return now


@pytest.fixture
def fake_clock():
    return FakeClock()


@contextlib.contextmanager
def installed(tracer):
    """``tracer`` as the process tracer for the block: what request trees
    finish into and the exporters read."""
    prev = obs.set_tracer(tracer)
    try:
        yield tracer
    finally:
        obs.set_tracer(prev)
