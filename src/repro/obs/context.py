"""Request-scoped tracing: causal span trees for individual requests.

The batch-level spans of :mod:`repro.obs.trace` answer "where does the
*workload's* time go"; this module answers "where did *this request's*
time go". A :class:`RequestContext` owns one span tree rooted at a
``request`` span, built with **explicit timestamps** (the serving
replays run on a discrete-event virtual clock, so spans cannot come from
the tracer's wall-clock stack, and every span states ``"virtual"`` as its
clock), and is threaded from :class:`~repro.serving.batcher.MicroBatcher`
admission through batch execution, router fan-out, per-shard/replica
dispatch and hedged duplicates. When the request completes, :meth:`RequestContext.finish`
attaches the tree to the tracer as a root, so it exports through the
same document / Chrome-trace machinery as every other span, grouped
under its own clock.

The resulting forest is addressable by request id — live, or read back
from an exported document by :func:`repro.obs.export.load_trace`:

* :func:`find_request` — locate a request's root span by id;
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

from .trace import Span, covered_seconds, get_tracer, walk

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
        self.root = Span(REQUEST_SPAN_NAME, t_start, "virtual")
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
        sp = Span(name, t_start, "virtual", t_end=t_end)
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


# -- forest queries ----------------------------------------------------

def find_request(roots: list[Span], request_id: str) -> Span | None:
    """The ``request`` span with ``request_id``, searching a span forest.

    ``roots`` is the live tracer's roots or the ``"spans"`` a trace
    document or flight dump reads back as through
    :func:`repro.obs.export.load_trace` — request trees are addressed
    the same way live and post-mortem. Returns ``None`` when absent.
    """
    for root in roots:
        for node in walk(root):
            if (
                node.name == REQUEST_SPAN_NAME
                and node.attrs.get(REQUEST_ID_ATTR) == request_id
            ):
                return node
    return None


def request_ids(roots: list[Span]) -> list[str]:
    """Every request id present in a span forest, in recording order."""
    out: list[str] = []
    for root in roots:
        for node in walk(root):
            if node.name == REQUEST_SPAN_NAME:
                rid = node.attrs.get(REQUEST_ID_ATTR)
                if rid is not None:
                    out.append(str(rid))
    return out


def critical_path(root: Span) -> list[Span]:
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
    t0, t1 = root.t_start, root.t_end
    nodes = [
        sp
        for i, sp in enumerate(walk(root))
        if i > 0
        and sp.t_end is not None
        and not sp.attrs.get("lost")
        and not sp.attrs.get("cancelled")
    ]
    path: list[Span] = []
    cursor = t1
    while cursor is not None and cursor > t0:
        active = [s for s in nodes if s.t_start < cursor and s.t_end >= cursor]
        if active:
            nxt = min(active, key=lambda s: s.t_start)
        else:
            before = [s for s in nodes if s.t_end < cursor]
            if not before:
                break
            nxt = max(before, key=lambda s: s.t_end)
        path.append(nxt)
        if nxt.t_start >= cursor:
            break  # zero-length span: cannot make progress
        cursor = nxt.t_start
    path.reverse()
    return [root] + path


def critical_path_coverage(root: Span) -> float:
    """Fraction of the request's latency explained by its critical path.

    The union of the path spans' intervals (root excluded), clipped to
    the root's own interval, divided by the root's duration. 1.0 means
    the reconstruction accounts for every recorded second; the
    acceptance contract is ≥ 0.95.
    """
    t0, t1 = root.t_start, root.t_end
    if t1 is None or t1 <= t0:
        return 1.0  # zero-latency request (cache hit): nothing to explain
    intervals = [(sp.t_start, sp.t_end) for sp in critical_path(root)[1:]]
    return covered_seconds(intervals, t0, t1) / (t1 - t0)


def _mark(node: Span) -> str:
    """Status tag for a dispatch span (hedging outcome)."""
    attrs = node.attrs
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


def render_request_tree(root: Span) -> str:
    """Ascii tree of one request's spans with interval + key attributes.

    Times are printed in milliseconds relative to the request's admission
    (``+x.xxxms``) so the tree reads as a timeline; the footer reports the
    critical path and its latency coverage.
    """
    t0 = root.t_start
    rid = root.attrs.get(REQUEST_ID_ATTR, "?")
    lines = []
    path = set(map(id, critical_path(root)))

    def fmt(node, depth):
        start = (node.t_start - t0) * 1e3
        end = node.t_end
        span_txt = (
            f"+{start:.3f}ms .. +{(end - t0) * 1e3:.3f}ms"
            if end is not None
            else f"+{start:.3f}ms .. (open)"
        )
        attrs = node.attrs
        shown = {
            k: attrs[k]
            for k in ("qid", "k", "shard", "replica", "queue_ms", "service_ms", "shed")
            if k in attrs
        }
        extra = f" {shown}" if shown else ""
        star = " *" if id(node) in path and depth > 0 else ""
        lines.append(
            f"{'  ' * depth}{node.name}  {span_txt}{_mark(node)}{extra}{star}"
        )
        for c in node.children:
            fmt(c, depth + 1)

    fmt(root, 0)
    latency = ((root.t_end or t0) - t0) * 1e3
    cov = critical_path_coverage(root)
    lines.append("")
    lines.append(
        f"request {rid}: latency {latency:.3f}ms, critical path "
        f"(* above) covers {100.0 * cov:.1f}% of it"
    )
    return "\n".join(lines)
