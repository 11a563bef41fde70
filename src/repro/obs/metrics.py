"""Process-wide counters, gauges and exact-percentile histograms.

The "how much / how often" half of ``repro.obs``: one registry that any
subsystem can drop a measurement into without threading a metrics object
through every call site::

    from repro.obs import metrics

    metrics.inc("sampler.pops")                 # counter += 1
    metrics.inc("prop.spmm_chunks", q)          # counter += q
    metrics.set_gauge("sampler.valid_ratio", r) # last-value gauge
    metrics.observe("sampler.occupancy", r)     # histogram sample

The module-level helpers are **guarded**: they check the
:mod:`repro.obs._gate` flag first and cost one attribute read when
instrumentation is disabled. The :class:`Histogram` keeps raw samples and
answers exact percentiles with ``np.percentile``'s default linear
interpolation, so p50/p95/p99 columns are testable against the numpy
oracle rather than approximations from fixed buckets.

:class:`LatencyHistogram` is the non-negative-samples variant the serving
layer records request latencies in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gate import GATE

__all__ = [
    "Counter",
    "Gauge",
    "Exemplar",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "inc",
    "set_gauge",
    "observe",
    "snapshot",
    "reset",
]


class Counter:
    """Monotone accumulator (float so it can count ops or bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, n: float = 1.0) -> None:
        """Increment by ``n`` (default 1)."""
        self.value += n

    def reset(self) -> None:
        """Zero the accumulator."""
        self.value = 0.0


class Gauge:
    """Last-written value (occupancy, queue depth, ratios)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = float("nan")

    def set(self, v: float) -> None:
        """Overwrite with the latest observation."""
        self.value = float(v)

    def reset(self) -> None:
        """Return to the never-written (NaN) state."""
        self.value = float("nan")


@dataclass(frozen=True)
class Exemplar:
    """A concrete sample worth keeping a handle to.

    Ties one histogram value back to the request that produced it
    (``request_id``) — the jump-off point from "p99 regressed" to one
    reconstructable request.
    """

    value: float
    request_id: str

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form."""
        return {"value": self.value, "request_id": self.request_id}


#: Reservoir capacity per histogram. Sized so every above-p99 sample of a
#: bench-scale replay (a few thousand requests → a few tens above p99)
#: survives min-eviction.
EXEMPLAR_CAPACITY = 32

#: Trailing window over which the admission threshold (p95) is computed.
_EXEMPLAR_WINDOW = 256

#: Samples required before the trailing p95 is trusted; during warmup
#: every candidate is admitted (min-eviction cleans them out later).
_EXEMPLAR_WARMUP = 20

#: Samples between recomputations of the trailing p95. The threshold is
#: allowed to go this stale: an exact per-sample ``np.percentile`` would
#: dominate the serve hot path (see ``tests/obs/test_overhead.py``), and
#: admission only needs to be *biased* toward the tail — min-eviction
#: still guarantees the largest values survive.
_EXEMPLAR_REFRESH = 32


class Histogram:
    """Sample accumulator with exact percentile queries.

    Keeps every sample (these are bench/test-scale runs, not a prod
    telemetry pipeline) so percentiles match ``np.percentile`` exactly.

    A bounded reservoir of :class:`Exemplar` rides along: callers that
    know which request produced a sample offer it via
    :meth:`record_exemplar`, and the reservoir keeps the ones biased
    toward the tail — above the trailing p95 of the last
    ``_EXEMPLAR_WINDOW`` samples, evicting the smallest-valued exemplar
    when full. The retained set is therefore the largest admitted values
    seen, so every above-p99 request of a replay stays resolvable.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._exemplars: list[Exemplar] = []
        self._p95_cache: float | None = None
        self._p95_at = 0

    def _trailing_p95(self) -> float | None:
        """Admission threshold, or ``None`` while still warming up.

        Recomputed from the trailing window only every
        ``_EXEMPLAR_REFRESH`` samples; in between the cached value is
        served so the hot path stays cheap.
        """
        n = len(self._samples)
        if n < _EXEMPLAR_WARMUP:
            return None
        if self._p95_cache is None or n - self._p95_at >= _EXEMPLAR_REFRESH:
            window = self._samples[-_EXEMPLAR_WINDOW:]
            self._p95_cache = float(np.percentile(np.asarray(window), 95))
            self._p95_at = n
        return self._p95_cache

    def record_exemplar(self, value: float, request_id: str) -> bool:
        """Offer an exemplar for ``value``; returns True if retained.

        Call after :meth:`record`-ing the sample itself so the trailing
        threshold includes it. Sub-threshold candidates are dropped once
        the histogram is warm; when the reservoir is full the smallest
        exemplar makes room, so retention is biased to the tail.
        """
        value = float(value)
        threshold = self._trailing_p95()
        if threshold is not None and value < threshold:
            return False
        ex = Exemplar(value, request_id)
        if len(self._exemplars) < EXEMPLAR_CAPACITY:
            self._exemplars.append(ex)
            return True
        lo = min(range(len(self._exemplars)), key=lambda i: self._exemplars[i].value)
        if self._exemplars[lo].value < value:
            self._exemplars[lo] = ex
            return True
        return False

    @property
    def exemplars(self) -> tuple[Exemplar, ...]:
        """Retained exemplars, largest value first."""
        return tuple(sorted(self._exemplars, key=lambda e: -e.value))

    def record(self, value: float) -> None:
        """Add one sample."""
        self._samples.append(float(value))

    def extend(self, values) -> None:
        """Add many samples."""
        for v in values:
            self.record(v)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def samples(self) -> tuple[float, ...]:
        """The raw samples, in recording order (what bench records and
        SLO evaluators consume — aggregates alone cannot be re-tested)."""
        return tuple(self._samples)

    def percentile(self, q: float) -> float:
        """Exact ``q``-th percentile (linear interpolation); NaN if empty."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if not self._samples:
            return float("nan")
        xs = np.sort(np.asarray(self._samples))
        # Linear interpolation between closest ranks, the numpy default.
        pos = (q / 100.0) * (xs.size - 1)
        lo = int(np.floor(pos))
        hi = int(np.ceil(pos))
        frac = pos - lo
        return float(xs[lo] * (1.0 - frac) + xs[hi] * frac)

    def mean(self) -> float:
        """Arithmetic mean; NaN if empty."""
        return float(np.mean(self._samples)) if self._samples else float("nan")

    def max(self) -> float:
        """Largest sample; NaN if empty."""
        return float(np.max(self._samples)) if self._samples else float("nan")

    def summary(self, scale: float = 1.0) -> dict[str, float]:
        """p50/p95/p99/mean/max/count, with values multiplied by ``scale``
        (e.g. ``1e3`` for milliseconds)."""
        return {
            "count": float(self.count),
            "p50": self.percentile(50) * scale,
            "p95": self.percentile(95) * scale,
            "p99": self.percentile(99) * scale,
            "mean": self.mean() * scale,
            "max": self.max() * scale,
        }

    def reset(self) -> None:
        """Drop all samples and exemplars."""
        self._samples.clear()
        self._exemplars.clear()
        self._p95_cache = None
        self._p95_at = 0


class LatencyHistogram(Histogram):
    """Latency sample accumulator: a :class:`Histogram` of non-negative
    seconds (the serving layer's p50/p95/p99 source)."""

    def record(self, value: float) -> None:
        """Add one latency sample (seconds)."""
        if value < 0:
            raise ValueError("latency cannot be negative")
        super().record(value)


class MetricsRegistry:
    """Name-addressed collection of counters, gauges and histograms.

    Instruments are created on first touch; reads of a name that was
    never written return a fresh zero instrument rather than raising, so
    report code need not care which subsystems actually ran.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        return h

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Flat JSON-ready view: counters, gauges, histogram summaries."""
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self.histograms.items()) if len(h)
            },
        }

    def exemplar_snapshot(self) -> dict[str, list[dict[str, object]]]:
        """Per-histogram exemplars (largest first), JSON-ready.

        Only histograms that retained at least one exemplar appear —
        this is the ``"exemplars"`` section of ``OBS_*.json`` documents
        and flight dumps.
        """
        return {
            k: [e.as_dict() for e in h.exemplars]
            for k, h in sorted(self.histograms.items())
            if h.exemplars
        }

    def reset(self) -> None:
        """Drop every instrument (names included)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry the guarded helpers write into."""
    return REGISTRY


def inc(name: str, n: float = 1.0) -> None:
    """Guarded counter increment (no-op while instrumentation is off)."""
    if GATE.enabled:
        REGISTRY.counter(name).add(n)


def set_gauge(name: str, v: float) -> None:
    """Guarded gauge write (no-op while instrumentation is off)."""
    if GATE.enabled:
        REGISTRY.gauge(name).set(v)


def observe(name: str, v: float, request_id: str | None = None) -> None:
    """Guarded histogram sample (no-op while instrumentation is off).

    When the caller knows which request produced the sample, passing
    ``request_id`` additionally offers the sample to the histogram's
    tail-exemplar reservoir.
    """
    if GATE.enabled:
        h = REGISTRY.histogram(name)
        h.record(v)
        if request_id is not None:
            h.record_exemplar(v, request_id)


def snapshot() -> dict[str, dict[str, float]]:
    """Snapshot of the process-wide registry."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Clear the process-wide registry."""
    REGISTRY.reset()
