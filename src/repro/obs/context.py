"""Request-scoped tracing: causal span trees for individual requests.

The batch-level spans of :mod:`repro.obs.trace` answer "where does the
*workload's* time go"; this module answers "where did *this request's*
time go". A :class:`RequestContext` owns one span tree rooted at a
``request`` span, built with **explicit timestamps** (the serving
replays run on a discrete-event virtual clock, so spans cannot come from
the tracer's wall-clock stack), and is threaded from
:class:`~repro.serving.batcher.MicroBatcher` admission through batch
execution, router fan-out, per-shard/replica dispatch and hedged
duplicates. When the request completes, :meth:`RequestContext.finish`
attaches the tree to the tracer as a root, so it exports through the
same document / Chrome-trace machinery as every other span.

The resulting forest is addressable by request id:

* :func:`find_request` — locate a request's root span (or its exported
  dict form) by id;
* :func:`critical_path` — the chain of spans that determined the
  request's completion time (at each level, the child that finished
  last);
* :func:`critical_path_coverage` — the fraction of the request's
  recorded latency covered by the union of the path's span intervals
  (the ≥95% reconstruction contract);
* :func:`render_request_tree` — the ascii tree behind
  ``obs-report --request <id>``, with hedged duplicates marked
  ``winner`` / ``lost`` / ``cancelled``.

Request ids are drawn from a process-wide counter
(:func:`new_request_id`), namespaced per replay via :func:`new_trace_id`
so two replays in one process never collide; both counters reset with
``obs.reset()`` so tests and CLI runs get reproducible ids.
"""

from __future__ import annotations

import threading

from .trace import Span, get_tracer

__all__ = [
    "RequestContext",
    "new_request_id",
    "new_trace_id",
    "reset_ids",
    "find_request",
    "request_ids",
    "critical_path",
    "critical_path_coverage",
    "render_request_tree",
]

#: Attribute key carrying the request id on a request root span.
REQUEST_ID_ATTR = "request_id"

#: Name of every request root span.
REQUEST_SPAN_NAME = "request"

_COUNTER_LOCK = threading.Lock()
_REQUEST_COUNTER = 0
_TRACE_COUNTER = 0


def new_request_id(prefix: str = "req") -> str:
    """Next process-wide request id (``req-000001``, …)."""
    global _REQUEST_COUNTER
    with _COUNTER_LOCK:
        _REQUEST_COUNTER += 1
        n = _REQUEST_COUNTER
    return f"{prefix}-{n:06d}"


def new_trace_id() -> str:
    """Next replay namespace (``t1``, ``t2``, …).

    A replay uses it as the request-id prefix
    (``f"{trace_id}.req"``) so ids stay unique when one process replays
    several traces (serve-bench runs four configurations back to back).
    """
    global _TRACE_COUNTER
    with _COUNTER_LOCK:
        _TRACE_COUNTER += 1
        n = _TRACE_COUNTER
    return f"t{n}"


def reset_ids() -> None:
    """Rewind both id counters (called from ``obs.reset()``)."""
    global _REQUEST_COUNTER, _TRACE_COUNTER
    with _COUNTER_LOCK:
        _REQUEST_COUNTER = 0
        _TRACE_COUNTER = 0


class RequestContext:
    """One request's causal span tree on an explicit clock.

    Parameters
    ----------
    request_id:
        Unique id (see :func:`new_request_id`); stored as the root
        span's ``request_id`` attribute.
    t_start:
        Admission time on the replay clock.
    attrs:
        Extra root attributes (query id, k, …).
    """

    __slots__ = ("request_id", "root")

    def __init__(self, request_id: str, t_start: float, **attrs: object) -> None:
        self.request_id = request_id
        self.root = Span(REQUEST_SPAN_NAME, t_start, None)
        self.root.attrs[REQUEST_ID_ATTR] = request_id
        if attrs:
            self.root.attrs.update(attrs)

    def child(
        self,
        name: str,
        t_start: float,
        *,
        parent: Span | None = None,
        t_end: float | None = None,
        **attrs: object,
    ) -> Span:
        """Add a span under ``parent`` (default: the root).

        ``t_end=None`` leaves the span open; close it later by assigning
        ``span.t_end`` (or let :meth:`finish` close it at the request's
        completion time).
        """
        sp = Span(name, t_start, None)
        sp.t_end = t_end
        if attrs:
            sp.attrs.update(attrs)
        (parent if parent is not None else self.root).children.append(sp)
        return sp

    def finish(self, t_end: float, **attrs: object) -> Span:
        """Close the tree at ``t_end`` and attach it to the process tracer.

        Any still-open descendant is closed at ``t_end`` too (a shed
        request's sub-spans never saw service). Returns the root.
        """
        if attrs:
            self.root.attrs.update(attrs)
        # Iterative close (hot path: once per served request; the
        # generator-based walk() shows up in serve-replay profiles).
        stack = [self.root]
        while stack:
            sp = stack.pop()
            if sp.t_end is None:
                sp.t_end = t_end
            if sp.children:
                stack.extend(sp.children)
        self.root.t_end = t_end
        get_tracer().add_root(self.root)
        return self.root


# -- forest queries (Span objects or exported dict nodes) ---------------

def _name(node) -> str:
    return node["name"] if isinstance(node, dict) else node.name


def _attrs(node) -> dict:
    return node.get("attrs", {}) if isinstance(node, dict) else node.attrs


def _children(node) -> list:
    return node.get("children", []) if isinstance(node, dict) else node.children


def _t_start(node) -> float:
    return node["t_start"] if isinstance(node, dict) else node.t_start


def _t_end(node) -> float | None:
    return node.get("t_end") if isinstance(node, dict) else node.t_end


def _walk_any(node):
    yield node
    for c in _children(node):
        yield from _walk_any(c)


def find_request(roots, request_id: str):
    """The ``request`` span with ``request_id``, searching a span forest.

    ``roots`` is a list of :class:`~repro.obs.trace.Span` objects *or*
    exported dict nodes (a trace document's ``"spans"`` list, a flight
    dump's ``"spans"`` list) — request trees are addressed the same way
    live and post-mortem. Returns ``None`` when absent.
    """
    for root in roots:
        for node in _walk_any(root):
            if (
                _name(node) == REQUEST_SPAN_NAME
                and _attrs(node).get(REQUEST_ID_ATTR) == request_id
            ):
                return node
    return None


def request_ids(roots) -> list[str]:
    """Every request id present in a span forest, in recording order."""
    out: list[str] = []
    for root in roots:
        for node in _walk_any(root):
            if _name(node) == REQUEST_SPAN_NAME:
                rid = _attrs(node).get(REQUEST_ID_ATTR)
                if rid is not None:
                    out.append(str(rid))
    return out


def critical_path(root) -> list:
    """Spans that determined the request's completion, root first.

    Walks *backward* from the request's completion: at each cursor the
    span still active there that extends furthest back is the one the
    request was waiting on (the winning dispatch at completion, the
    queue wait before it, …). When no span is active at the cursor the
    walk jumps to the previous completion — that gap is unattributed
    time and counts against :func:`critical_path_coverage`. Descendants
    are considered across the whole tree, so sibling spans (queue then
    service) chain naturally. Hedged duplicates marked ``lost`` or
    ``cancelled`` are excluded: they may finish after the winner, but
    the request never waited on them.
    """
    t0, t1 = _t_start(root), _t_end(root)
    nodes = [
        sp
        for i, sp in enumerate(_walk_any(root))
        if i > 0
        and _t_end(sp) is not None
        and not _attrs(sp).get("lost")
        and not _attrs(sp).get("cancelled")
    ]
    path: list = []
    cursor = t1
    while cursor is not None and cursor > t0:
        active = [
            s for s in nodes if _t_start(s) < cursor and _t_end(s) >= cursor
        ]
        if active:
            nxt = min(active, key=_t_start)
        else:
            before = [s for s in nodes if _t_end(s) < cursor]
            if not before:
                break
            nxt = max(before, key=_t_end)
        path.append(nxt)
        if _t_start(nxt) >= cursor:
            break  # zero-length span: cannot make progress
        cursor = _t_start(nxt)
    path.reverse()
    return [root] + path


def critical_path_coverage(root) -> float:
    """Fraction of the request's latency explained by its critical path.

    The union of the path spans' intervals (root excluded), clipped to
    the root's own interval, divided by the root's duration. 1.0 means
    the reconstruction accounts for every recorded second; the
    acceptance contract is ≥ 0.95.
    """
    t0, t1 = _t_start(root), _t_end(root)
    if t1 is None or t1 <= t0:
        return 1.0  # zero-latency request (cache hit): nothing to explain
    intervals = sorted(
        (max(_t_start(sp), t0), min(_t_end(sp), t1))
        for sp in critical_path(root)[1:]
        if _t_end(sp) is not None and _t_end(sp) > t0 and _t_start(sp) < t1
    )
    covered = 0.0
    cursor = t0
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered / (t1 - t0)


def _mark(node) -> str:
    """Status tag for a dispatch span (hedging outcome)."""
    attrs = _attrs(node)
    tags = []
    if attrs.get("hedge"):
        tags.append("hedge")
    if attrs.get("winner"):
        tags.append("winner")
    elif attrs.get("cancelled"):
        tags.append("cancelled")
    elif attrs.get("lost"):
        tags.append("lost")
    if attrs.get("leaked"):
        tags.append("leaked")
    return f" [{'/'.join(tags)}]" if tags else ""


def render_request_tree(root) -> str:
    """Ascii tree of one request's spans with interval + key attributes.

    Times are printed in milliseconds relative to the request's admission
    (``+x.xxxms``) so the tree reads as a timeline; the footer reports the
    critical path and its latency coverage.
    """
    t0 = _t_start(root)
    rid = _attrs(root).get(REQUEST_ID_ATTR, "?")
    lines = []
    path = set(map(id, critical_path(root)))

    def fmt(node, depth):
        start = (_t_start(node) - t0) * 1e3
        end = _t_end(node)
        span_txt = (
            f"+{start:.3f}ms .. +{(end - t0) * 1e3:.3f}ms"
            if end is not None
            else f"+{start:.3f}ms .. (open)"
        )
        attrs = _attrs(node)
        shown = {
            k: attrs[k]
            for k in ("qid", "k", "shard", "replica", "queue_ms", "service_ms", "shed")
            if k in attrs
        }
        extra = f" {shown}" if shown else ""
        star = " *" if id(node) in path and depth > 0 else ""
        lines.append(
            f"{'  ' * depth}{_name(node)}  {span_txt}{_mark(node)}{extra}{star}"
        )
        for c in _children(node):
            fmt(c, depth + 1)

    fmt(root, 0)
    latency = ((_t_end(root) or t0) - t0) * 1e3
    cov = critical_path_coverage(root)
    lines.append("")
    lines.append(
        f"request {rid}: latency {latency:.3f}ms, critical path "
        f"(* above) covers {100.0 * cov:.1f}% of it"
    )
    return "\n".join(lines)
