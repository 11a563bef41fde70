"""Flight recorder: an always-on event ring for post-hoc tail debugging.

Aggregate metrics say *that* p99 regressed; the flight recorder keeps
enough recent raw material to say *why* — without asking anyone to
re-run with extra instrumentation. While instrumentation is enabled it
retains:

* discrete **events** (producer stalls, hedge fires, shed decisions)
  posted via :func:`flight_event`, in a fixed-capacity ring;
* **counter deltas** since the previous dump, so a dump shows what
  moved recently rather than lifetime totals.

Spans are not copied: the process tracer's ``roots`` are the only copy
of finished span trees, and a dump reads the newest
:data:`SPAN_CAPACITY` of them.

:meth:`FlightRecorder.dump` writes the whole state as an
``OBS_flightdump_*.json`` diagnostic bundle — recent span trees
(request trees included), the event log, the shared document keys of
:func:`repro.obs.export.document` — next to the bench artifacts.
:meth:`FlightRecorder.maybe_dump` is the debounced variant wired into
:mod:`repro.obs.slo`: the first breached rule evaluation triggers a dump
automatically, subsequent breaches within the debounce window do not
re-dump. ``python -m repro.cli flight-dump`` triggers one on demand.

Disabled-path cost is unchanged: the gate is checked before the event
ring is touched, and with instrumentation off no root spans exist.
"""

from __future__ import annotations

import collections
import json
import pathlib
import threading
import time

from ._gate import GATE
from .metrics import REGISTRY, MetricsRegistry
from .trace import get_tracer

__all__ = [
    "FlightRecorder",
    "get_flight_recorder",
    "set_flight_recorder",
    "flight_event",
]

#: Finished root spans a dump holds and events the ring keeps, sized to
#: hold the interesting tail of a bench-scale replay.
SPAN_CAPACITY = 256
EVENT_CAPACITY = 512

#: Minimum seconds between automatic (``maybe_dump``) dumps.
DEBOUNCE_SECONDS = 30.0


class FlightRecorder:
    """Recorder of recent events and counter moves; dumps them with the
    tracer's newest span trees.

    The ring holds :data:`EVENT_CAPACITY` events; the oldest fall off
    when full. ``clock`` is the wall clock used for event timestamps and
    dump debouncing, injectable so
    tests control the debounce window deterministically. ``out_dir`` is
    the default directory for dump files (cwd while ``None``); the CLI
    points it at its ``--out`` directory so automatic breach dumps land
    next to the other artifacts.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._events = collections.deque(maxlen=EVENT_CAPACITY)
        self._lock = threading.Lock()
        self._counter_base: dict[str, float] = {}
        self.clock = clock
        self.out_dir = None
        self._last_dump: float | None = None
        self.dump_count = 0

    # -- recording -------------------------------------------------------
    def event(self, name: str, **attrs: object) -> None:
        """Append a discrete event (stamped with the recorder's clock)."""
        self._events.append({"name": name, "t": self.clock(), "attrs": attrs})

    def clear(self) -> None:
        """Drop buffered events and rebase counter deltas."""
        with self._lock:
            self._events.clear()
            self._counter_base.clear()
            self._last_dump = None

    # -- introspection ---------------------------------------------------
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

        The bundle is self-contained: the newest :data:`SPAN_CAPACITY`
        finished roots of the process tracer, whole trees (request trees
        addressable by ``obs-report --request`` via ``--trace`` pointed
        at the dump), the event log, counter deltas since the previous
        dump, and the shared keys of :func:`repro.obs.export.document`
        (the environment fingerprint among them, so a dump from CI
        identifies the machine that produced it).
        """
        from .export import document, span_to_dict, to_jsonable

        registry = registry or REGISTRY
        finished = [sp for sp in list(get_tracer().roots) if sp.t_end is not None]
        spans = finished[-SPAN_CAPACITY:]
        with self._lock:
            events = list(self._events)
            deltas = self.counter_deltas(registry)
            self._counter_base = {
                k: c.value for k, c in registry.counters.items()
            }
            self._last_dump = self.clock()
            self.dump_count += 1
            n = self.dump_count
        doc = {
            **document(f"flightdump_{name}", spans, registry),
            "kind": "flightdump",
            "reason": reason,
            "dump_index": n,
            "spans": [span_to_dict(sp) for sp in spans],
            "events": events,
            "counter_deltas": deltas,
        }
        directory = pathlib.Path(out_dir or self.out_dir or ".")
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"OBS_flightdump_{name}_{n:03d}.json"
        path.write_text(json.dumps(to_jsonable(doc), indent=2) + "\n")
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


#: Process-wide recorder (created on first use). Replaceable for tests
#: via :func:`set_flight_recorder`.
_RECORDER: FlightRecorder | None = None


def get_flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder (created on first use)."""
    global _RECORDER
    if _RECORDER is None:
        set_flight_recorder(FlightRecorder())
    return _RECORDER


def set_flight_recorder(recorder: FlightRecorder | None) -> FlightRecorder | None:
    """Swap the process-wide recorder (``None`` uninstalls); returns the
    previous one."""
    global _RECORDER
    prev = _RECORDER
    _RECORDER = recorder
    return prev


def flight_event(name: str, **attrs: object) -> None:
    """Guarded event append: no-op while instrumentation is disabled."""
    if GATE.enabled:
        get_flight_recorder().event(name, **attrs)
