"""Flight recorder: an always-on ring buffer for post-hoc tail debugging.

Aggregate metrics say *that* p99 regressed; the flight recorder keeps
enough recent raw material to say *why* — without asking anyone to
re-run with extra instrumentation. While instrumentation is enabled it
continuously retains, in fixed-capacity ring buffers:

* the most recent **completed root spans** (request trees included),
  fed by the tracer's root sink (:func:`repro.obs.trace.set_root_sink`
  — the recorder never blocks span recording, it just appends to a
  deque);
* discrete **events** (producer stalls, hedge fires, shed decisions)
  posted via :func:`flight_event`;
* **counter deltas** since the previous dump, so a dump shows what
  moved recently rather than lifetime totals.

:meth:`FlightRecorder.dump` writes the whole state as an
``OBS_flightdump_*.json`` diagnostic bundle — recent spans, the event
log, metric + exemplar snapshots, and the environment fingerprint —
next to the bench artifacts. :meth:`FlightRecorder.maybe_dump` is the
debounced variant wired into :mod:`repro.obs.slo`: the first breached
rule evaluation triggers a dump automatically, subsequent breaches
within the debounce window do not re-dump. ``python -m repro.cli
flight-dump`` triggers one on demand.

Disabled-path cost is unchanged: the gate is checked before any buffer
is touched, and with instrumentation off no root spans exist to record.
"""

from __future__ import annotations

import collections
import json
import pathlib
import threading
import time

from ._gate import GATE
from .metrics import REGISTRY, MetricsRegistry

__all__ = [
    "FlightRecorder",
    "get_flight_recorder",
    "set_flight_recorder",
    "flight_event",
]

#: Ring capacities: recent spans and events, sized to hold the
#: interesting tail of a bench-scale replay without unbounded growth.
SPAN_CAPACITY = 256
EVENT_CAPACITY = 512

#: Minimum seconds between automatic (``maybe_dump``) dumps.
DEBOUNCE_SECONDS = 30.0


class FlightRecorder:
    """Fixed-capacity recorder of recent spans, events and counter moves.

    The rings hold :data:`SPAN_CAPACITY` spans and :data:`EVENT_CAPACITY`
    events; the oldest entries fall off when full. ``clock`` is the wall
    clock used for event timestamps and dump debouncing, injectable so
    tests control the debounce window deterministically. ``out_dir`` is
    the default directory for dump files (cwd while ``None``); the CLI
    points it at its ``--out`` directory so automatic breach dumps land
    next to the other artifacts.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._spans = collections.deque(maxlen=SPAN_CAPACITY)
        self._events = collections.deque(maxlen=EVENT_CAPACITY)
        self._lock = threading.Lock()
        self._counter_base: dict[str, float] = {}
        self.clock = clock
        self.out_dir = None
        self._last_dump: float | None = None
        self.dump_count = 0

    # -- recording -------------------------------------------------------
    def record_span(self, sp) -> None:
        """Retain a completed root span (the tracer's root-sink hook).

        Appends a reference, not a copy — deque appends are atomic and
        completed spans are no longer mutated, so this is safe from any
        recording thread and adds no serialization to the hot path.
        """
        self._spans.append(sp)

    def event(self, name: str, **attrs: object) -> None:
        """Append a discrete event (stamped with the recorder's clock)."""
        self._events.append({"name": name, "t": self.clock(), "attrs": attrs})

    def clear(self) -> None:
        """Drop buffered spans/events and rebase counter deltas."""
        with self._lock:
            self._spans.clear()
            self._events.clear()
            self._counter_base.clear()
            self._last_dump = None

    # -- introspection ---------------------------------------------------
    @property
    def spans(self) -> list:
        """Buffered root spans, oldest first."""
        return list(self._spans)

    @property
    def events(self) -> list[dict]:
        """Buffered events, oldest first."""
        return list(self._events)

    def counter_deltas(self, registry: MetricsRegistry | None = None) -> dict:
        """Counter movement since the last dump (or since creation)."""
        registry = registry or REGISTRY
        current = {k: c.value for k, c in registry.counters.items()}
        return {
            k: v - self._counter_base.get(k, 0.0)
            for k, v in sorted(current.items())
            if v != self._counter_base.get(k, 0.0)
        }

    # -- dumping ---------------------------------------------------------
    def dump(
        self,
        name: str = "flight",
        out_dir=None,
        reason: str = "manual",
        registry: MetricsRegistry | None = None,
    ) -> pathlib.Path:
        """Write the diagnostic bundle; returns the file path.

        The bundle is self-contained: recent span trees (request trees
        addressable by ``obs-report --request`` via ``--trace`` pointed
        at the dump), the event log, full metric + exemplar snapshots,
        counter deltas since the previous dump, and the environment
        fingerprint so a dump from CI identifies the machine that
        produced it.
        """
        from .export import _jsonable, span_to_dict
        from .record import environment_fingerprint

        registry = registry or REGISTRY
        with self._lock:
            spans = list(self._spans)
            events = list(self._events)
            deltas = self.counter_deltas(registry)
            self._counter_base = {
                k: c.value for k, c in registry.counters.items()
            }
            self._last_dump = self.clock()
            self.dump_count += 1
            n = self.dump_count
        doc = {
            "obs": f"flightdump_{name}",
            "kind": "flightdump",
            "reason": reason,
            "dump_index": n,
            "env": environment_fingerprint(),
            "spans": [span_to_dict(sp) for sp in spans],
            "events": events,
            "counter_deltas": deltas,
            "metrics": registry.snapshot(),
            "exemplars": registry.exemplar_snapshot(),
        }
        directory = pathlib.Path(out_dir or self.out_dir or ".")
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"OBS_flightdump_{name}_{n:03d}.json"
        path.write_text(json.dumps(_jsonable(doc), indent=2) + "\n")
        return path

    def maybe_dump(
        self,
        name: str = "flight",
        reason: str = "auto",
        registry: MetricsRegistry | None = None,
    ) -> pathlib.Path | None:
        """Debounced :meth:`dump`: skip if one fired within
        :data:`DEBOUNCE_SECONDS`.

        Returns the dump path, or ``None`` when suppressed. This is the
        SLO-breach entry point — a storm of breached evaluations
        produces one bundle per debounce window, not one per rule.
        """
        now = self.clock()
        if (
            self._last_dump is not None
            and now - self._last_dump < DEBOUNCE_SECONDS
        ):
            return None
        return self.dump(name, reason=reason, registry=registry)


#: Process-wide recorder; installed as the tracer's root sink by
#: :mod:`repro.obs` at import. Replaceable for tests via
#: :func:`set_flight_recorder`.
_RECORDER: FlightRecorder | None = None


def get_flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder (created on first use)."""
    global _RECORDER
    if _RECORDER is None:
        set_flight_recorder(FlightRecorder())
    return _RECORDER


def set_flight_recorder(recorder: FlightRecorder | None) -> FlightRecorder | None:
    """Swap the process-wide recorder and re-wire the tracer root sink.

    ``None`` uninstalls (the sink included). Returns the previous
    recorder.
    """
    from . import trace

    global _RECORDER
    prev = _RECORDER
    _RECORDER = recorder
    trace.set_root_sink(None if recorder is None else recorder.record_span)
    return prev


def flight_event(name: str, **attrs: object) -> None:
    """Guarded event append: no-op while instrumentation is disabled."""
    if GATE.enabled:
        get_flight_recorder().event(name, **attrs)
