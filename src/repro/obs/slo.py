"""Declarative runtime SLOs evaluated against the live obs layer.

A rule is data — a name, a ``kind`` naming one of the builtin
evaluators, and a params dict — so SLO sets can live in config, tests
and CI without code changes. Evaluation reads the live
:class:`~repro.obs.metrics.MetricsRegistry` / tracer (plus whatever the
caller hands over in the :class:`SLOContext`), records every breach as a
counter (``slo.breaches`` and ``slo.breach.<rule>``) under an
``slo.evaluate`` span, and returns rows the ``slo-report`` CLI renders.

Builtin kinds:

* ``serving_deadline_miss`` — fraction of served requests whose latency
  exceeded ``deadline`` must stay <= ``max_miss_rate`` (the serving
  p99-style contract, but on the full sample set rather than one
  percentile).
* ``span_coverage`` — the named child phases must cover at least
  ``min_coverage`` of the parent phase's wall time (the paper's
  sample+forward+backward decomposition must keep explaining iteration
  time).
* ``flop_drift`` — the obs flop counters (``gemm.flops`` +
  ``spmm.flops``) must agree with the expected count (the Eq. 1-anchored
  kernel accounting; see ``tests/kernels/test_accounting.py``) within
  ``max_rel_drift`` — if the guarded dual-write path drifts from the
  always-on account, the observability layer itself is lying.
* ``histogram_p99`` — p99 of any registry histogram <= ``threshold``.
* ``per_shard_p99`` — worst per-shard p99 across every registry
  histogram matching ``prefix``/``suffix`` (the cluster's
  ``cluster.shard.<s>.latency_seconds`` family) <= ``threshold`` — one
  hot shard cannot hide behind the cluster-wide percentile.
* ``staleness_bound`` — max of a staleness histogram (age of the
  embedding slab each served result was computed from,
  ``cluster.staleness_seconds``) <= ``bound`` — the streaming-upsert
  freshness contract.

:func:`cluster_rules` bundles the two cluster rules the serve-bench
cluster mode evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from . import metrics as obs_metrics
from .trace import aggregate, get_tracer, span

__all__ = [
    "SLORule",
    "SLOContext",
    "SLOResult",
    "evaluate",
    "default_rules",
    "cluster_rules",
    "render_slo_report",
]


@dataclass(frozen=True)
class SLORule:
    """One declarative rule: evaluator kind + parameters."""

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    description: str = ""


@dataclass
class SLOContext:
    """Everything an evaluator may read.

    ``registry`` / ``tracer`` default to the live process-wide obs
    objects; ``serving`` is a :class:`repro.serving.metrics.ServingMetrics`
    from a replay, and ``expected_flops`` the metered kernel-accounting
    total for the same window the registry counters cover.
    """

    registry: object | None = None
    tracer: object | None = None
    serving: object | None = None
    expected_flops: float | None = None

    def get_registry(self):
        """The registry to read — explicit one, else the live global."""
        return self.registry if self.registry is not None else obs_metrics.get_registry()

    def get_tracer(self):
        """The tracer to read — explicit one, else the live global."""
        return self.tracer if self.tracer is not None else get_tracer()


@dataclass
class SLOResult:
    """One rule's outcome: measured value vs threshold."""

    rule: str
    kind: str
    value: float
    threshold: float
    ok: bool
    detail: str = ""

    def as_row(self) -> dict:
        """Report-table row with an ok/BREACH status column."""
        return {
            "rule": self.rule,
            "kind": self.kind,
            "value": self.value,
            "threshold": self.threshold,
            "status": "ok" if self.ok else "BREACH",
            "detail": self.detail,
        }


# -- builtin evaluators ------------------------------------------------

def _eval_serving_deadline_miss(rule: SLORule, ctx: SLOContext) -> SLOResult:
    deadline = float(rule.params["deadline"])
    max_rate = float(rule.params.get("max_miss_rate", 0.01))
    serving = ctx.serving
    samples = () if serving is None else tuple(serving.latency.samples)
    if not samples:
        return SLOResult(
            rule.name, rule.kind, float("nan"), max_rate, False,
            detail="no serving latency samples",
        )
    missed = sum(1 for s in samples if s > deadline)
    rate = missed / len(samples)
    return SLOResult(
        rule.name, rule.kind, rate, max_rate, rate <= max_rate,
        detail=f"{missed}/{len(samples)} past {deadline * 1e3:.2f}ms",
    )


def _eval_span_coverage(rule: SLORule, ctx: SLOContext) -> SLOResult:
    parent = str(rule.params.get("parent", "trainer.iteration"))
    children = tuple(
        rule.params.get("children", ("trainer.sample", "trainer.forward", "trainer.backward"))
    )
    min_cov = float(rule.params.get("min_coverage", 0.95))
    phases = aggregate(ctx.get_tracer().roots)
    parent_stat = phases.get(parent)
    if parent_stat is None or parent_stat.wall_seconds <= 0:
        return SLOResult(
            rule.name, rule.kind, float("nan"), min_cov, False,
            detail=f"no {parent!r} spans recorded",
        )
    covered = sum(
        phases[c].wall_seconds for c in children if c in phases
    )
    cov = covered / parent_stat.wall_seconds
    return SLOResult(
        rule.name, rule.kind, cov, min_cov, cov >= min_cov,
        detail=f"{'+'.join(children)} / {parent}",
    )


def _eval_flop_drift(rule: SLORule, ctx: SLOContext) -> SLOResult:
    max_drift = float(rule.params.get("max_rel_drift", 1e-6))
    expected = ctx.expected_flops
    if expected is None:
        expected = float(rule.params.get("expected_flops", float("nan")))
    registry = ctx.get_registry()
    measured = (
        registry.counter("gemm.flops").value + registry.counter("spmm.flops").value
    )
    if expected != expected or expected <= 0:
        return SLOResult(
            rule.name, rule.kind, float("nan"), max_drift, False,
            detail="no expected flop count supplied",
        )
    drift = abs(measured - expected) / expected
    return SLOResult(
        rule.name, rule.kind, drift, max_drift, drift <= max_drift,
        detail=f"measured {measured:.3e} vs expected {expected:.3e}",
    )


def _eval_histogram_p99(rule: SLORule, ctx: SLOContext) -> SLOResult:
    metric = str(rule.params["metric"])
    threshold = float(rule.params["threshold"])
    hist = ctx.get_registry().histograms.get(metric)
    if hist is None or not len(hist):
        return SLOResult(
            rule.name, rule.kind, float("nan"), threshold, False,
            detail=f"no samples under {metric!r}",
        )
    p99 = hist.percentile(99)
    return SLOResult(
        rule.name, rule.kind, p99, threshold, p99 <= threshold,
        detail=f"p99 of {metric} ({len(hist)} samples)",
    )


def _eval_per_shard_p99(rule: SLORule, ctx: SLOContext) -> SLOResult:
    prefix = str(rule.params.get("prefix", "cluster.shard."))
    suffix = str(rule.params.get("suffix", ".latency_seconds"))
    threshold = float(rule.params["threshold"])
    registry = ctx.get_registry()
    matching = {
        name: hist
        for name, hist in registry.histograms.items()
        if name.startswith(prefix) and name.endswith(suffix) and len(hist)
    }
    if not matching:
        return SLOResult(
            rule.name, rule.kind, float("nan"), threshold, False,
            detail=f"no histograms matching {prefix}*{suffix}",
        )
    worst_name, worst = max(
        matching.items(), key=lambda kv: kv[1].percentile(99)
    )
    p99 = worst.percentile(99)
    return SLOResult(
        rule.name, rule.kind, p99, threshold, p99 <= threshold,
        detail=f"worst of {len(matching)} shards: {worst_name}",
    )


def _eval_staleness_bound(rule: SLORule, ctx: SLOContext) -> SLOResult:
    metric = str(rule.params.get("metric", "cluster.staleness_seconds"))
    bound = float(rule.params["bound"])
    hist = ctx.get_registry().histograms.get(metric)
    if hist is None or not len(hist):
        return SLOResult(
            rule.name, rule.kind, float("nan"), bound, False,
            detail=f"no samples under {metric!r}",
        )
    worst = hist.max()
    return SLOResult(
        rule.name, rule.kind, worst, bound, worst <= bound,
        detail=f"max slab age over {len(hist)} served sub-requests",
    )


_EVALUATORS: dict[str, Callable[[SLORule, SLOContext], SLOResult]] = {
    "serving_deadline_miss": _eval_serving_deadline_miss,
    "span_coverage": _eval_span_coverage,
    "flop_drift": _eval_flop_drift,
    "histogram_p99": _eval_histogram_p99,
    "per_shard_p99": _eval_per_shard_p99,
    "staleness_bound": _eval_staleness_bound,
}


def evaluate(rules, ctx: SLOContext | None = None) -> list[SLOResult]:
    """Evaluate every rule; record breaches as counters under a span.

    Breach counters are written directly to the context's registry
    (bypassing the kill-switch guards): an SLO evaluation is an explicit
    request for telemetry, not hot-path instrumentation.

    Any breach additionally triggers a **debounced flight dump** (see
    :mod:`repro.obs.flight`): the recorder's recent spans, events and
    counter movement are bundled to disk the moment a rule goes red, so
    the requests that caused the breach are captured before the buffers
    roll over. The dump is best-effort — a recorder failure never turns
    an SLO report into a crash.
    """
    ctx = ctx or SLOContext()
    registry = ctx.get_registry()
    results: list[SLOResult] = []
    with span("slo.evaluate") as sp:
        for rule in rules:
            fn = _EVALUATORS.get(rule.kind)
            if fn is None:
                raise ValueError(f"unknown SLO rule kind {rule.kind!r}")
            result = fn(rule, ctx)
            results.append(result)
            registry.counter("slo.evaluated").add()
            if not result.ok:
                registry.counter("slo.breaches").add()
                registry.counter(f"slo.breach.{result.rule}").add()
        breaches = sum(1 for r in results if not r.ok)
        sp.set(rules=len(results), breaches=breaches)
    if breaches:
        from .flight import get_flight_recorder

        breached = ",".join(r.rule for r in results if not r.ok)
        try:
            path = get_flight_recorder().maybe_dump(
                "slo_breach", reason=f"slo breach: {breached}", registry=registry
            )
        except OSError:
            path = None
        if path is not None:
            registry.counter("slo.flight_dumps").add()
    return results


def default_rules(
    *,
    deadline: float = 0.050,
    max_miss_rate: float = 0.05,
    min_coverage: float = 0.95,
    max_flop_drift: float = 1e-6,
) -> list[SLORule]:
    """The repo's standing SLO set (what ``slo-report`` evaluates)."""
    return [
        SLORule(
            name="serving-deadline-miss",
            kind="serving_deadline_miss",
            params={"deadline": deadline, "max_miss_rate": max_miss_rate},
            description="served latency may miss the deadline only rarely",
        ),
        SLORule(
            name="iteration-span-coverage",
            kind="span_coverage",
            params={
                "parent": "trainer.iteration",
                "children": ("trainer.sample", "trainer.forward", "trainer.backward"),
                "min_coverage": min_coverage,
            },
            description="sample+forward+backward must explain iteration time",
        ),
        SLORule(
            name="flop-account-drift",
            kind="flop_drift",
            params={"max_rel_drift": max_flop_drift},
            description="obs flop counters must match the Eq. 1-anchored account",
        ),
    ]


def cluster_rules(
    *,
    per_shard_p99: float = 0.100,
    staleness_bound: float = 5.0,
) -> list[SLORule]:
    """The sharded-serving SLO set (what serve-cluster gates on).

    ``per_shard_p99`` caps the p99 sub-request latency of the *worst*
    shard; ``staleness_bound`` caps the age (seconds on the replay
    clock) of the embedding slab behind any served result — the
    contract streaming upserts must keep while queries are in flight.
    """
    return [
        SLORule(
            name="cluster-per-shard-p99",
            kind="per_shard_p99",
            params={"threshold": per_shard_p99},
            description="every shard's sub-request p99 stays under the cap",
        ),
        SLORule(
            name="cluster-staleness-bound",
            kind="staleness_bound",
            params={"bound": staleness_bound},
            description="no served result computed from a slab older than the bound",
        ),
    ]


def render_slo_report(results: list[SLOResult], *, title: str = "SLO report") -> str:
    """Fixed-width report table plus a one-line verdict."""
    from ..experiments.common import format_table

    if not results:
        return f"{title}\n(no rules evaluated)"
    table = format_table([r.as_row() for r in results], title=title)
    breaches = [r.rule for r in results if not r.ok]
    verdict = (
        "all SLOs met"
        if not breaches
        else f"{len(breaches)} breach(es): {', '.join(breaches)}"
    )
    return f"{table}\n\n{verdict}"
