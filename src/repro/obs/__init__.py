"""repro.obs — the cross-cutting observability layer.

The paper's headline claims are performance claims (Fig. 2
time-to-accuracy, Fig. 3/4 scaling); this package is how the repo sees
where time actually goes. One span/counter vocabulary shared by every
subsystem:

* :mod:`repro.obs.trace` — hierarchical spans, each stating the clock
  its times are on (``"wall"`` for the tracer, ``"virtual"`` for the
  serving replays' request trees), with arbitrary attributes; the
  tracer's clock is injectable so traces are deterministic in tests;
* :mod:`repro.obs.metrics` — process-wide counters / gauges / exact-
  percentile histograms (subsumes ``repro.serving.metrics``'s
  :class:`~repro.obs.metrics.LatencyHistogram`);
* :mod:`repro.obs.export` — JSON trace documents, Chrome
  ``trace_event`` files, and the flat ``OBS_<name>.json`` summaries that
  sit next to the bench harness's ``BENCH_<name>.json``; the JSON
  documents share one builder and one reader;
* :mod:`repro.obs.context` — request-scoped tracing: per-request span
  trees (admission → batch → shard fan-out → hedged duplicates) that
  make individual tail requests reconstructable by id;
* :mod:`repro.obs.flight` — the flight recorder: a ring of recent events
  and the tracer's newest span trees, dumped to
  ``OBS_flightdump_*.json`` on SLO breach (debounced) or on demand.

Everything is **off by default** and costs one attribute read per call
site when disabled (see :mod:`repro.obs._gate`); enable it with::

    from repro import obs

    with obs.enabled():
        trainer.train()
    print(obs.export.render_report(obs.export.trace_document("run")))

or from the command line::

    python -m repro.cli train-bench --out results/
    python -m repro.cli obs-report --trace results/OBS_train_bench.json

See ``docs/observability.md`` for the full guide.
"""

from . import context, export, flight, history, metrics, record, regress, slo
from ._gate import enabled, is_enabled, set_enabled
from .context import RequestContext
from .flight import FlightRecorder, flight_event, get_flight_recorder
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyHistogram,
    MetricsRegistry,
    get_registry,
)
from .trace import (
    PhaseStat,
    Span,
    Tracer,
    aggregate,
    get_tracer,
    set_tracer,
    span,
    walk,
)

__all__ = [
    "enabled",
    "is_enabled",
    "set_enabled",
    "span",
    "Span",
    "Tracer",
    "PhaseStat",
    "aggregate",
    "walk",
    "get_tracer",
    "set_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "get_registry",
    "metrics",
    "export",
    "record",
    "history",
    "regress",
    "slo",
    "context",
    "flight",
    "RequestContext",
    "FlightRecorder",
    "flight_event",
    "get_flight_recorder",
    "reset",
]


def reset() -> None:
    """Clear the tracer, the metrics registry, request-id counters, the
    flight recorder's event ring and the kernel layer's per-class book.

    Bench runners call this before each workload so one process can
    export several independent ``OBS_*.json`` files with reproducible
    request ids, each one's ``kernel_classes`` over its spans' window.
    """
    from ..kernels import accounting
    from . import trace as _trace

    accounting.reset_per_class()
    _trace.reset()
    metrics.reset()
    context.reset_ids()
    flight.get_flight_recorder().clear()
