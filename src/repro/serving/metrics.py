"""Serving metrics: latency percentiles, throughput, hit-rate, recall.

The paper reports its systems results as tables of measured quantities;
the serving layer does the same. Latencies are kept as raw samples in a
:class:`repro.obs.metrics.LatencyHistogram` (exact percentiles, linear
interpolation, matching ``np.percentile``'s default — the one histogram
implementation in the repo), so the p50/p95/p99 columns are testable
against the numpy oracle rather than approximations from fixed buckets.
Per-request latencies are also mirrored into the obs registry
(``serve.latency_seconds`` for the single server,
``cluster.latency_seconds`` and ``cluster.shard.<s>.latency_seconds``
for the cluster) so SLO rules and bench records read the same samples
this report summarizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.metrics import LatencyHistogram

__all__ = ["ServingMetrics"]


@dataclass
class ServingMetrics:
    """Aggregate counters for one serving run.

    Latency is completion minus arrival on the replay clock; throughput
    is served requests over the span from first arrival to last
    completion. ``shed`` counts load-shedding drops at the admission
    queue, ``degraded_batches`` counts batches served with reduced ANN
    probes because the head request blew its deadline.
    """

    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    served: int = 0
    shed: int = 0
    batches: int = 0
    degraded_batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rows_scanned: int = 0
    service_time_total: float = 0.0
    first_arrival: float | None = None
    last_completion: float = 0.0
    recall_at_k: float | None = None

    def observe_arrival(self, t: float) -> None:
        """Track the earliest arrival (throughput span start)."""
        if self.first_arrival is None or t < self.first_arrival:
            self.first_arrival = t

    def observe_completion(self, arrival: float, completion: float) -> None:
        """Record one served request's latency and completion time."""
        self.latency.record(max(completion - arrival, 0.0))
        self.served += 1
        self.last_completion = max(self.last_completion, completion)

    @property
    def span(self) -> float:
        """First arrival to last completion, on the replay clock."""
        if self.first_arrival is None:
            return 0.0
        return max(self.last_completion - self.first_arrival, 0.0)

    @property
    def throughput(self) -> float:
        """Served requests per second of span (0.0 for an empty run)."""
        return self.served / self.span if self.span > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        """Cache hits / lookups (0.0 without a cache)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat summary row (latencies in milliseconds)."""
        lat = self.latency.summary(scale=1e3)
        out = {
            "served": float(self.served),
            "shed": float(self.shed),
            "throughput_qps": self.throughput,
            "p50_ms": lat["p50"],
            "p95_ms": lat["p95"],
            "p99_ms": lat["p99"],
            "mean_ms": lat["mean"],
            "hit_rate": self.hit_rate,
            "batches": float(self.batches),
            "degraded_batches": float(self.degraded_batches),
            "rows_scanned": float(self.rows_scanned),
        }
        if self.recall_at_k is not None:
            out["recall_at_k"] = self.recall_at_k
        return out
