"""Hierarchical spans: the "where does the time go" half of ``repro.obs``.

A span is one timed region of code with a name, a start/end, the clock
those two times are read on, and arbitrary key-value attributes. Spans
of a :class:`Tracer` are on the ``"wall"`` clock; the request trees of
:mod:`repro.obs.context` are on the serving replays' ``"virtual"``
clock. Aggregates and exports group by clock and never mix the two (the
modeled clock the paper's scaling figures run on is not kept on spans:
:mod:`repro.experiments.repricing` prices a run's counters after it
ends)::

    from repro import obs

    with obs.span("sampler.frontier") as sp:
        subgraph = sampler.sample(rng)
        sp.set(vertices=subgraph.num_vertices)

Spans nest: a span opened while another is active becomes its child, so a
trainer iteration produces a tree (iteration → forward → prop.forward → …)
that exports cleanly to Chrome ``trace_event`` JSON (see
:mod:`repro.obs.export`).

Three properties keep this usable on hot paths:

* **Kill switch** — when :func:`repro.obs.is_enabled` is ``False`` (the
  default), :func:`span` returns a shared no-op singleton: no object is
  allocated and no clock is read.
* **Deterministic clock** — a :class:`Tracer` takes any ``clock``
  callable. Tests inject a counter clock so span durations (and therefore
  exported traces) are exactly reproducible.
* **Thread safety** — the open-span stack is *thread-local* (a span
  opened on a prefetch worker can never parent under whatever span the
  consumer thread has open), roots are appended under a lock, and every
  span records the ident of the thread that opened it so the Chrome
  exporter can draw per-thread lanes.

``Tracer.roots`` is the only copy of recorded span trees: the exporters
and the flight recorder (:mod:`repro.obs.flight`) all read it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ._gate import GATE

__all__ = [
    "Span",
    "Tracer",
    "PhaseStat",
    "span",
    "get_tracer",
    "set_tracer",
    "reset",
    "aggregate",
    "covered_seconds",
    "walk",
]


class Span:
    """One timed region; also its own context manager.

    Attributes are plain instance fields (``__slots__``) so entering a
    span costs one object plus two clock reads. ``clock`` names what
    ``t_start`` / ``t_end`` are read on (``"wall"`` or ``"virtual"``).
    ``tid`` is the ident of the opening thread (``None`` for spans built
    with explicit times, e.g. the request spans of
    :mod:`repro.obs.context`).
    """

    __slots__ = (
        "name", "t_start", "t_end", "clock", "attrs", "children",
        "_tracer", "tid",
    )

    def __init__(
        self,
        name: str,
        t_start: float,
        clock: str,
        *,
        t_end: float | None = None,
        tracer: "Tracer | None" = None,
        tid: int | None = None,
    ) -> None:
        self.name = name
        self.t_start = t_start
        self.t_end = t_end
        self.clock = clock
        self.attrs: dict[str, object] = {}
        self.children: list[Span] = []
        self._tracer = tracer
        self.tid = tid

    # -- recording -----------------------------------------------------
    def set(self, **attrs: object) -> "Span":
        """Attach attributes (vertex counts, q, batch size, …)."""
        self.attrs.update(attrs)
        return self

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self._tracer is not None:
            self._tracer._finish(self)

    # -- derived quantities --------------------------------------------
    @property
    def duration(self) -> float:
        """Seconds on the span's clock between start and end (0.0 while
        still open)."""
        return 0.0 if self.t_end is None else self.t_end - self.t_start

    @property
    def self_seconds(self) -> float:
        """Duration minus the part of it the children's intervals cover.

        The union, not the sum: concurrent children (a request's shard
        fan-out, its hedged duplicates) overlap, and their sum can
        exceed the parent's duration. Clamped at 0.0 against the rounding
        of a union that covers the whole span.
        """
        if self.t_end is None:
            return 0.0
        spans = [(c.t_start, c.t_end) for c in self.children if c.t_end is not None]
        return max(0.0, self.duration - covered_seconds(spans, self.t_start, self.t_end))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, dur={self.duration:.6f}, "
            f"children={len(self.children)})"
        )


class _NoopSpan:
    """Shared do-nothing span returned while instrumentation is off."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects a forest of ``"wall"`` spans on one injected clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning monotonically non-decreasing
        floats; defaults to :func:`time.perf_counter`. Tests pass a
        deterministic counter so recorded durations are exact.

    The open-span stack is kept per thread (``threading.local``): a span
    opened by a prefetch worker becomes its own root (or a child of that
    *worker's* open span), never a child of the consumer thread's stack.
    ``roots`` is shared across threads and appended under a lock.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.roots: list[Span] = []
        self._local = threading.local()
        self._roots_lock = threading.Lock()

    @property
    def _stack(self) -> list[Span]:
        """This thread's open-span stack (created on first touch)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: object) -> Span:
        """Open a span as a child of this thread's active span."""
        sp = Span(name, self.clock(), "wall", tracer=self, tid=threading.get_ident())
        if attrs:
            sp.attrs.update(attrs)
        stack = self._stack
        if stack:
            stack[-1].children.append(sp)
        else:
            with self._roots_lock:
                self.roots.append(sp)
        stack.append(sp)
        return sp

    def add_root(self, sp: Span) -> Span:
        """Attach an externally-built (finished) span tree as a root.

        The request-scoped virtual-clock traces of
        :mod:`repro.obs.context` land here: they are constructed with
        explicit timestamps rather than through the stack, but export,
        aggregation and the flight recorder treat them like any other
        root, on their own clock.
        """
        with self._roots_lock:
            self.roots.append(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        sp.t_end = self.clock()
        # Tolerate out-of-order exits (e.g. a span leaked across an
        # exception the caller swallowed): unwind to the finished span,
        # marking every silently-closed parent as leaked.
        stack = self._stack
        leaked = 0
        while stack:
            top = stack.pop()
            if top is sp:
                break
            if top.t_end is None:
                top.t_end = sp.t_end
                top.attrs["leaked"] = True
                leaked += 1
        if leaked:
            # Guarded write: Tracer is also used standalone in tests with
            # the gate off, and the disabled path must record nothing.
            from . import metrics as obs_metrics

            obs_metrics.inc("obs.spans.leaked", leaked)

    def current(self) -> Span | None:
        """This thread's innermost open span, or None outside any span."""
        stack = self._stack
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Drop all recorded spans (this thread's open ones included)."""
        with self._roots_lock:
            self.roots.clear()
        self._stack.clear()


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer that :func:`span` records into."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer (returns the previous one)."""
    global _TRACER
    prev = _TRACER
    _TRACER = tracer
    return prev


def span(name: str, **attrs: object):
    """Open a span on the global tracer; no-op when disabled.

    The disabled path performs one attribute read and returns a shared
    singleton — it never allocates, so leaving instrumentation compiled
    into hot loops is free (enforced by ``tests/obs/test_overhead.py``).
    """
    if not GATE.enabled:
        return NOOP_SPAN
    return _TRACER.span(name, **attrs)


def reset() -> None:
    """Clear the global tracer's recorded spans."""
    _TRACER.reset()


def walk(sp: Span):
    """Yield ``sp`` and all descendants, depth-first, parents first."""
    yield sp
    for child in sp.children:
        yield from walk(child)


def covered_seconds(intervals, t0: float, t1: float) -> float:
    """Length of the union of ``(start, end)`` intervals within
    ``[t0, t1]``: overlapping intervals count once."""
    covered = 0.0
    cursor = t0
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, t1)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


@dataclass
class PhaseStat:
    """Aggregated view of every span sharing one name."""

    name: str
    count: int = 0
    seconds: float = 0.0  # on the spans' own clock
    self_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-ready form (all values as floats)."""
        return {
            "count": float(self.count),
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
        }


def aggregate(spans) -> dict[str, dict[str, PhaseStat]]:
    """Per-clock, per-name totals over a span forest, in first-seen order.

    ``{clock: {name: PhaseStat}}``: seconds on different clocks are never
    summed together. ``seconds`` sums full durations on the group's
    clock (a child's time is also inside its parent's total — the tree
    view); ``self_seconds`` sums time no child span covers, so within
    one clock self times sum to total traced time without double
    counting.
    """
    out: dict[str, dict[str, PhaseStat]] = {}
    for root in spans:
        for sp in walk(root):
            group = out.setdefault(sp.clock, {})
            stat = group.get(sp.name)
            if stat is None:
                stat = group[sp.name] = PhaseStat(sp.name)
            stat.count += 1
            stat.seconds += sp.duration
            stat.self_seconds += sp.self_seconds
    return out
