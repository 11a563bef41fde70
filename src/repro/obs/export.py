"""Trace/metric export: JSON documents, Chrome ``trace_event``, reports.

Three output shapes, one source of truth (the tracer + registry):

* **trace document** — nested spans plus per-phase aggregates and a
  metrics snapshot; what ``python -m repro.cli obs-report`` consumes.
* **Chrome trace** — a ``trace_event`` array loadable in
  ``chrome://tracing`` / Perfetto ("complete" ``ph: "X"`` events,
  microsecond timestamps).
* **``OBS_<name>.json``** — the flat summary
  :func:`repro.obs.record.write_bench` writes next to a bench's
  ``BENCH_<name>.json`` when the runner keeps no trace document of its
  own: same naming convention, same directory, so the cross-PR
  trajectory tooling picks both up.
"""

from __future__ import annotations

import json
import pathlib

from .metrics import MetricsRegistry, REGISTRY
from .trace import Span, Tracer, aggregate, get_tracer

__all__ = [
    "span_to_dict",
    "trace_document",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_obs_json",
    "load_trace",
    "render_report",
    "render_exemplars",
]


def _jsonable(obj):
    """JSON-safe conversion (non-finite floats become ``None``)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return obj if obj == obj and abs(obj) != float("inf") else None
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return _jsonable(obj.item())
    return str(obj)


def span_to_dict(sp: Span) -> dict:
    """Nested JSON form of one span (children recursively included)."""
    return {
        "name": sp.name,
        "t_start": sp.t_start,
        "t_end": sp.t_end,
        "duration": sp.duration,
        "tid": sp.tid,
        "attrs": _jsonable(sp.attrs),
        "children": [span_to_dict(c) for c in sp.children],
    }


def trace_document(
    name: str,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
) -> dict:
    """Full export: nested spans + per-phase aggregates + metrics."""
    from .record import environment_fingerprint

    # Lazy import: the kernel layer imports obs at module load, so this
    # direction must resolve at call time only.
    from ..kernels import accounting as kernel_accounting

    tracer = tracer or get_tracer()
    registry = registry or REGISTRY
    phases = aggregate(tracer.roots)
    return {
        "obs": name,
        "env": environment_fingerprint(),
        "phases": {k: v.as_dict() for k, v in phases.items()},
        "metrics": _jsonable(registry.snapshot()),
        "exemplars": _jsonable(registry.exemplar_snapshot()),
        "kernel_classes": _jsonable(kernel_accounting.per_class_snapshot()),
        "spans": [span_to_dict(r) for r in tracer.roots],
    }


def to_chrome_trace(roots: list[Span]) -> list[dict]:
    """Spans as Chrome ``trace_event`` "complete" events.

    Timestamps are microseconds relative to the earliest root so the
    viewer opens at t=0 regardless of the clock's epoch. Open spans
    (no ``t_end``) are skipped — they have no extent to draw.

    Each recording thread gets its own lane: span ``tid`` values
    (python thread idents) are remapped to dense small ints in
    first-seen order, so the lane numbering is deterministic for a
    given trace regardless of what idents the OS handed out. Spans with
    no thread (virtual-clock request trees) share lane 0 with the first
    thread seen.
    """
    if not roots:
        return []
    t0 = min(r.t_start for r in roots)
    events: list[dict] = []
    lanes: dict[int | None, int] = {}

    def lane(tid: int | None) -> int:
        if tid is None:
            return 0
        n = lanes.get(tid)
        if n is None:
            n = lanes[tid] = len(lanes)
        return n

    def emit(sp: Span) -> None:
        if sp.t_end is not None:
            events.append(
                {
                    "name": sp.name,
                    "ph": "X",
                    "ts": (sp.t_start - t0) * 1e6,
                    "dur": sp.duration * 1e6,
                    "pid": 0,
                    "tid": lane(sp.tid),
                    "args": _jsonable(sp.attrs),
                }
            )
        for c in sp.children:
            emit(c)

    for r in roots:
        emit(r)
    return events


def write_chrome_trace(path, tracer: Tracer | None = None) -> pathlib.Path:
    """Write a ``chrome://tracing``-loadable event array to ``path``."""
    tracer = tracer or get_tracer()
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": to_chrome_trace(tracer.roots)}) + "\n"
    )
    return path


def write_obs_json(
    path,
    name: str,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
) -> pathlib.Path:
    """Write the flat ``OBS_<name>.json`` summary (no span tree).

    The shape mirrors ``BENCH_<name>.json`` (``{"obs": name, ...}`` vs
    ``{"bench": name, ...}``): per-phase aggregates plus the metrics
    snapshot, small enough to diff across PRs.
    """
    from .record import environment_fingerprint

    tracer = tracer or get_tracer()
    registry = registry or REGISTRY
    doc = {
        "obs": name,
        "env": environment_fingerprint(),
        "phases": {k: v.as_dict() for k, v in aggregate(tracer.roots).items()},
        "metrics": _jsonable(registry.snapshot()),
        "exemplars": _jsonable(registry.exemplar_snapshot()),
    }
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")
    return path


def load_trace(path) -> dict:
    """Read an exported JSON document (:func:`write_obs_json`, a flight
    dump)."""
    return json.loads(pathlib.Path(path).read_text())


def render_report(doc: dict) -> str:
    """Per-phase breakdown table from an exported trace document.

    ``wall_%`` is the phase's share of *self* time (time not inside a
    child span), so the column sums to ~100 without double counting
    nested spans; ``per_call_ms`` is mean wall time per span. Documents
    written while spans still carried a modeled clock hold a per-phase
    modeled-time field too; it is not read.
    """
    phases = doc.get("phases", {})
    if not phases:
        return f"obs report: {doc.get('obs', '?')}\n(no spans recorded)"
    total_self = sum(p.get("self_seconds", 0.0) for p in phases.values())
    rows = []
    for phase_name, p in phases.items():
        count = p.get("count", 0.0)
        wall = p.get("wall_seconds", 0.0)
        rows.append(
            {
                "phase": phase_name,
                "count": int(count),
                "wall_s": wall,
                "self_s": p.get("self_seconds", 0.0),
                "wall_%": (
                    100.0 * p.get("self_seconds", 0.0) / total_self
                    if total_self > 0
                    else 0.0
                ),
                "per_call_ms": 1e3 * wall / count if count else 0.0,
            }
        )
    from ..experiments.common import format_table

    title = f"obs report: {doc.get('obs', '?')}"
    table = format_table(rows, title=title)
    counters = doc.get("metrics", {}).get("counters", {})
    if counters:
        counter_rows = [
            {"counter": k, "value": v} for k, v in sorted(counters.items())
        ]
        table += "\n\n" + format_table(counter_rows, title="counters")
    # What each upsert cost, side by side: how late it landed, what the
    # producer spent making the slab, what the refresh paid in Lloyd.
    upsert_rows = []
    for name, h in sorted(doc.get("metrics", {}).get("histograms", {}).items()):
        if "upsert" in name:
            scale, unit = (1e3, "ms") if name.endswith("_seconds") else (1.0, "-")
            stats = {f: scale * h.get(f, 0.0) for f in ("mean", "p50", "p95", "max")}
            upsert_rows.append(
                {"histogram": name, "count": int(h.get("count", 0)), "unit": unit, **stats}
            )
    if upsert_rows:
        table += "\n\n" + format_table(upsert_rows, title="upserts")
    return table


def render_exemplars(doc: dict) -> str:
    """Tail-exemplar table from an exported document.

    One row per retained exemplar (largest values first per histogram):
    the concrete slow requests behind the aggregate percentiles, with
    the request id to feed to ``obs-report --request``.
    """
    exemplars = doc.get("exemplars", {})
    rows = []
    for hist_name, entries in sorted(exemplars.items()):
        for e in entries:
            rows.append(
                {
                    "histogram": hist_name,
                    "value_ms": 1e3 * (e.get("value") or 0.0),
                    "request_id": e.get("request_id"),
                    "span_ref": e.get("span_ref") or "-",
                }
            )
    title = f"tail exemplars: {doc.get('obs', '?')}"
    if not rows:
        return f"{title}\n(no exemplars retained)"
    from ..experiments.common import format_table

    return format_table(rows, title=title)
