"""Trace/metric export: JSON documents, Chrome ``trace_event``, reports.

Three output shapes, one source of truth (the tracer + registry), and
one builder of the keys every JSON document shares (:func:`document`):

* **trace document** — nested spans plus per-clock, per-phase aggregates
  and a metrics snapshot; what ``python -m repro.cli obs-report``
  consumes.
* **Chrome trace** — a ``trace_event`` array loadable in
  ``chrome://tracing`` / Perfetto ("complete" ``ph: "X"`` events,
  microsecond timestamps, one process per clock).
* **``OBS_<name>.json``** — the flat summary
  :func:`repro.obs.record.write_bench` writes next to a bench's
  ``BENCH_<name>.json`` when the runner keeps no trace document of its
  own: same naming convention, same directory, so the cross-PR
  trajectory tooling picks both up.

:func:`load_trace` is the one reader: it rebuilds a document's spans
into :class:`~repro.obs.trace.Span` trees (:func:`span_from_dict`, the
inverse of :func:`span_to_dict`).
"""

from __future__ import annotations

import json
import pathlib

from .metrics import REGISTRY, MetricsRegistry
from .trace import Span, aggregate, get_tracer

__all__ = [
    "to_jsonable",
    "span_to_dict",
    "span_from_dict",
    "document",
    "trace_document",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_obs_json",
    "load_trace",
    "kernel_rollup",
    "render_report",
    "render_exemplars",
]


def to_jsonable(obj: object) -> object:
    """Recursively convert to JSON-serializable data.

    Handles numpy scalars/arrays, tuples, sets and non-finite floats
    (mapped to ``None``, since JSON has no NaN/inf).
    """
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return to_jsonable(obj.tolist())
    if isinstance(obj, float):
        return obj if obj == obj and abs(obj) != float("inf") else None
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def span_to_dict(sp: Span) -> dict:
    """Nested JSON form of one span (children recursively included)."""
    return {
        "name": sp.name,
        "t_start": sp.t_start,
        "t_end": sp.t_end,
        "duration": sp.duration,
        "clock": sp.clock,
        "tid": sp.tid,
        "attrs": to_jsonable(sp.attrs),
        "children": [span_to_dict(c) for c in sp.children],
    }


def span_from_dict(d: dict) -> Span:
    """Inverse of :func:`span_to_dict`. A span exported before spans
    stated their clock reads as ``"wall"`` if it has a thread id and as
    ``"virtual"`` if not, the mark a request tree carried then."""
    tid = d.get("tid")
    clock = d.get("clock") or ("virtual" if tid is None else "wall")
    sp = Span(d["name"], d["t_start"], clock, t_end=d.get("t_end"), tid=tid)
    sp.attrs = dict(d.get("attrs") or {})
    sp.children = [span_from_dict(c) for c in d.get("children", [])]
    return sp


def _phases(roots: list[Span]) -> dict:
    return {c: {k: v.as_dict() for k, v in s.items()} for c, s in aggregate(roots).items()}


def document(name: str, roots: list[Span], registry: MetricsRegistry | None = None) -> dict:
    """The keys every exported document shares: ``obs``, ``env``,
    per-clock ``phases`` over ``roots``, the registry's ``metrics`` and
    ``exemplars``, and the kernel layer's per-class book as
    ``kernel_classes`` (:func:`repro.obs.reset` clears it with the
    spans, so both cover one window)."""
    from .record import environment_fingerprint

    # Lazy import: the kernel package imports obs at module load, so this
    # direction must resolve at call time only.
    from ..kernels import accounting as kernel_accounting

    registry = registry or REGISTRY
    return to_jsonable({
        "obs": name,
        "env": environment_fingerprint(),
        "phases": _phases(roots),
        "metrics": registry.snapshot(),
        "exemplars": registry.exemplar_snapshot(),
        "kernel_classes": kernel_accounting.per_class_snapshot(),
    })


def trace_document(name: str) -> dict:
    """Full export of the process tracer and metrics registry: the
    shared keys of :func:`document` plus the nested ``spans``."""
    roots = list(get_tracer().roots)
    return {**document(name, roots), "spans": [span_to_dict(r) for r in roots]}


def to_chrome_trace(roots: list[Span]) -> list[dict]:
    """Spans as Chrome ``trace_event`` "complete" events.

    Each clock is its own process (``pid`` in first-seen order), with
    timestamps in microseconds relative to that clock's earliest root,
    so the viewer opens every clock at t=0 and never lays virtual
    seconds beside wall seconds. Open spans (no ``t_end``) are
    skipped — they have no extent to draw.

    Each recording thread gets its own lane: span ``tid`` values
    (python thread idents) are remapped to dense small ints in
    first-seen order, so the lane numbering is deterministic for a
    given trace regardless of what idents the OS handed out. Spans with
    no thread (virtual-clock request trees) share lane 0.
    """
    t0: dict[str, float] = {}
    for r in roots:
        t0[r.clock] = min(t0.get(r.clock, r.t_start), r.t_start)
    pids = {clock: i for i, clock in enumerate(t0)}
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
                    "ts": (sp.t_start - t0[sp.clock]) * 1e6,
                    "dur": sp.duration * 1e6,
                    "pid": pids[sp.clock],
                    "tid": lane(sp.tid),
                    "args": to_jsonable(sp.attrs),
                }
            )
        for c in sp.children:
            emit(c)

    for r in roots:
        emit(r)
    return events


def write_chrome_trace(path) -> pathlib.Path:
    """Write the process tracer's spans to ``path`` as a
    ``chrome://tracing``-loadable event array."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": to_chrome_trace(get_tracer().roots)}) + "\n"
    )
    return path


def write_obs_json(path, name: str) -> pathlib.Path:
    """Write the process tracer's and registry's flat ``OBS_<name>.json``
    summary (no span tree).

    The shape mirrors ``BENCH_<name>.json`` (``{"obs": name, ...}`` vs
    ``{"bench": name, ...}``): the shared keys of :func:`document`
    without the span tree, small enough to diff across PRs.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = document(name, list(get_tracer().roots))
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_trace(path) -> dict:
    """Read an exported JSON document (a trace document, an
    ``OBS_<name>.json``, a flight dump), its ``"spans"`` rebuilt into
    :class:`~repro.obs.trace.Span` trees."""
    doc = json.loads(pathlib.Path(path).read_text())
    if "spans" in doc:
        doc["spans"] = [span_from_dict(d) for d in doc["spans"]]
    return doc


def kernel_rollup(doc: dict) -> dict[str, dict[str, float]]:
    """Calls, flops and wall seconds per kernel op (``gemm``, ``spmm``)
    summed over an exported document's ``kernel_classes``."""
    ops: dict[str, dict[str, float]] = {}
    for row in doc.get("kernel_classes", {}).values():
        op = ops.setdefault(row["op"], {"calls": 0, "flops": 0.0, "seconds": 0.0})
        for field in op:
            op[field] += row[field]
    return dict(sorted(ops.items()))


def render_report(doc: dict) -> str:
    """Per-phase breakdown tables from an exported trace document, one
    per clock.

    A table's ``<clock>_s`` is total seconds on that clock and
    ``<clock>_%`` the phase's share of the clock's *self* time (time no
    child span covers), so the column sums to ~100 without double
    counting nested or concurrent spans; ``per_call_ms`` is the mean
    duration per span. Below them come the counters, the per-op kernel
    work of :func:`kernel_rollup` and the upsert histograms. Older
    documents read too: phases from the spans of a dump that has none,
    one flat map as wall, a ``wall_seconds`` total as ``seconds``.
    """
    phases = doc.get("phases")
    if phases is None:
        phases = _phases(doc.get("spans", []))
    if not phases:
        return f"obs report: {doc.get('obs', '?')}\n(no spans recorded)"
    if any("count" in p for p in phases.values()):
        phases = {"wall": phases}
    from ..experiments.common import format_table

    tables = []
    for clock, stats in phases.items():
        total_self = sum(p.get("self_seconds", 0.0) for p in stats.values())
        rows = []
        for phase_name, p in stats.items():
            count = p.get("count", 0.0)
            seconds = p.get("seconds", p.get("wall_seconds", 0.0))
            self_s = p.get("self_seconds", 0.0)
            rows.append(
                {
                    "phase": phase_name,
                    "count": int(count),
                    f"{clock}_s": seconds,
                    "self_s": self_s,
                    f"{clock}_%": 100.0 * self_s / total_self if total_self > 0 else 0.0,
                    "per_call_ms": 1e3 * seconds / count if count else 0.0,
                }
            )
        title = f"obs report: {doc.get('obs', '?')} ({clock} clock)"
        tables.append(format_table(rows, title=title))
    table = "\n\n".join(tables)
    counters = doc.get("metrics", {}).get("counters", {})
    if counters:
        counter_rows = [
            {"counter": k, "value": v} for k, v in sorted(counters.items())
        ]
        table += "\n\n" + format_table(counter_rows, title="counters")
    kernel_rows = [{"op": op, **row} for op, row in kernel_rollup(doc).items()]
    if kernel_rows:
        table += "\n\n" + format_table(kernel_rows, title="kernel work")
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
                }
            )
    title = f"tail exemplars: {doc.get('obs', '?')}"
    if not rows:
        return f"{title}\n(no exemplars retained)"
    from ..experiments.common import format_table

    return format_table(rows, title=title)
