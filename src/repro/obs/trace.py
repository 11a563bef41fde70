"""Hierarchical spans: the "where does the time go" half of ``repro.obs``.

A span is one timed region of code with a name, wall-clock start/end and
arbitrary key-value attributes (the modeled clock the paper's scaling
figures run on is not kept on spans: :mod:`repro.experiments.repricing`
prices a run's counters after it ends)::

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

Completed *root* spans are additionally offered to a pluggable sink
(:func:`set_root_sink`) — how the flight recorder
(:mod:`repro.obs.flight`) sees finished span trees without the tracer
importing it.
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
    "set_root_sink",
    "reset",
    "aggregate",
    "walk",
]


class Span:
    """One timed region; also its own context manager.

    Attributes are plain instance fields (``__slots__``) so entering a
    span costs one object plus two clock reads. ``tid`` is the ident of
    the opening thread (``None`` for spans built with explicit times,
    e.g. the virtual-clock request spans of
    :mod:`repro.obs.context`).
    """

    __slots__ = (
        "name", "t_start", "t_end", "attrs", "children",
        "_tracer", "tid",
    )

    def __init__(
        self,
        name: str,
        t_start: float,
        tracer: "Tracer | None",
        tid: int | None = None,
    ) -> None:
        self.name = name
        self.t_start = t_start
        self.t_end: float | None = None
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
        """Wall seconds between enter and exit (0.0 while still open)."""
        return 0.0 if self.t_end is None else self.t_end - self.t_start

    @property
    def self_seconds(self) -> float:
        """Duration minus the time spent inside child spans."""
        return self.duration - sum(c.duration for c in self.children)

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

#: Completed-root sink (installed by :mod:`repro.obs.flight`); called
#: with each root span the moment it finishes. Process-wide on purpose:
#: the flight recorder should see roots from every tracer.
_ROOT_SINK = None


def set_root_sink(sink) -> None:
    """Install ``sink(span)`` to observe completed root spans.

    ``None`` uninstalls. The sink runs on whatever thread finished the
    root, so it must be thread-safe (the flight recorder's ring buffer
    appends are).
    """
    global _ROOT_SINK
    _ROOT_SINK = sink


class Tracer:
    """Collects a forest of spans on one injected clock.

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
        sp = Span(name, self.clock(), self, tid=threading.get_ident())
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
        root.
        """
        with self._roots_lock:
            self.roots.append(sp)
        if _ROOT_SINK is not None and sp.t_end is not None:
            _ROOT_SINK(sp)
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
        if not stack and _ROOT_SINK is not None:
            _ROOT_SINK(sp)

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


@dataclass
class PhaseStat:
    """Aggregated view of every span sharing one name."""

    name: str
    count: int = 0
    wall_seconds: float = 0.0
    self_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-ready form (all values as floats)."""
        return {
            "count": float(self.count),
            "wall_seconds": self.wall_seconds,
            "self_seconds": self.self_seconds,
        }


def aggregate(spans) -> dict[str, PhaseStat]:
    """Per-name totals over a span forest, in first-seen order.

    ``wall_seconds`` sums full durations (a child's time is also inside
    its parent's total — the tree view); ``self_seconds`` sums time not
    attributed to any child span, so self times sum to total traced time
    without double counting.
    """
    out: dict[str, PhaseStat] = {}
    for root in spans:
        for sp in walk(root):
            stat = out.get(sp.name)
            if stat is None:
                stat = out[sp.name] = PhaseStat(sp.name)
            stat.count += 1
            stat.wall_seconds += sp.duration
            stat.self_seconds += sp.self_seconds
    return out
