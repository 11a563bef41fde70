"""Synthetic query workloads for the serving benchmarks.

Real retrieval traffic is popularity-skewed. We model query popularity
as a Zipf law over vertex rank — ``P(rank r) ∝ (r+1)^-skew`` — which is
the request-side analogue of the Amazon profile's power-law *degree*
distribution (Table I): the same hub vertices that dominate edges
dominate lookups in any degree-correlated workload.

Arrival processes, all built on one inhomogeneous-Poisson machinery:

* :func:`zipf_trace` — homogeneous Poisson at a configurable rate (the
  steady-state benchmark);
* :func:`modulated_trace` — piecewise-constant rate ``r(t)`` given as
  ``(duration, rate)`` segments, cycled (arrivals come from inverting
  the integrated rate against unit-rate exponential gaps);
* :func:`bursty_trace` — alternating base/burst rates, the tail-latency
  stressor the cluster hedging bench replays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QueryTrace",
    "zipf_trace",
    "modulated_trace",
    "bursty_trace",
]


@dataclass(frozen=True)
class QueryTrace:
    """A replayable request stream: parallel arrays of ids and arrivals."""

    query_ids: np.ndarray  # (n,) int64 vertex ids
    arrivals: np.ndarray  # (n,) float64 seconds, non-decreasing
    k: int  # neighbors requested per query
    skew: float  # Zipf exponent the ids were drawn with

    def __post_init__(self) -> None:
        if self.query_ids.shape != self.arrivals.shape:
            raise ValueError("query_ids and arrivals must align")
        if np.any(np.diff(self.arrivals) < 0):
            raise ValueError("arrivals must be non-decreasing")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    def __len__(self) -> int:
        return int(self.query_ids.shape[0])


def _zipf_ids(
    num_queries: int,
    num_vertices: int,
    skew: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Zipf-skewed vertex ids, popularity rank decoupled from id.

    A random permutation scatters the hot vertices across the id space
    (as they are in a relabeled real graph).
    """
    if num_queries < 1:
        raise ValueError("num_queries must be >= 1")
    if num_vertices < 1:
        raise ValueError("num_vertices must be >= 1")
    if skew < 0:
        raise ValueError("skew must be >= 0")
    weights = (np.arange(num_vertices, dtype=np.float64) + 1.0) ** (-skew)
    weights /= weights.sum()
    ranks = rng.choice(num_vertices, size=num_queries, p=weights)
    rank_to_vertex = rng.permutation(num_vertices)
    return rank_to_vertex[ranks].astype(np.int64)


def zipf_trace(
    num_queries: int,
    num_vertices: int,
    *,
    skew: float = 1.1,
    rate: float = 1000.0,
    k: int = 10,
    rng: np.random.Generator | None = None,
) -> QueryTrace:
    """Zipf-skewed query ids with homogeneous Poisson arrivals.

    All randomness flows through ``rng``.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = rng or np.random.default_rng(0)
    ids = _zipf_ids(num_queries, num_vertices, skew, rng)
    gaps = rng.exponential(scale=1.0 / rate, size=num_queries)
    gaps[0] = 0.0
    return QueryTrace(
        query_ids=ids,
        arrivals=np.cumsum(gaps),
        k=k,
        skew=skew,
    )


def modulated_trace(
    num_queries: int,
    num_vertices: int,
    *,
    segments: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    skew: float = 1.1,
    k: int = 10,
    rng: np.random.Generator | None = None,
) -> QueryTrace:
    """Inhomogeneous Poisson arrivals with a piecewise-constant rate.

    ``segments`` is a sequence of ``(duration_seconds, rate_qps)`` pairs
    that cycle until ``num_queries`` arrivals are placed. Arrivals are
    generated by the time-change theorem: unit-rate exponential gaps are
    accumulated into event times of a rate-1 process, then mapped through
    the inverse of the integrated rate ``Λ(t) = ∫ r(s) ds`` (piecewise
    linear, so the inverse is one ``np.interp``). Every rate must be
    positive so ``Λ`` is strictly increasing and invertible.
    """
    segments = tuple((float(d), float(r)) for d, r in segments)
    if not segments:
        raise ValueError("segments must be non-empty")
    if any(d <= 0 for d, _ in segments):
        raise ValueError("segment durations must be positive")
    if any(r <= 0 for _, r in segments):
        raise ValueError("segment rates must be positive")
    rng = rng or np.random.default_rng(0)
    ids = _zipf_ids(num_queries, num_vertices, skew, rng)
    gaps = rng.exponential(scale=1.0, size=num_queries)
    gaps[0] = 0.0
    unit_times = np.cumsum(gaps)  # event times of the rate-1 process
    # Build Λ knots over enough cycles to cover the last unit-time event.
    cycle_mass = sum(d * r for d, r in segments)
    cycles = int(np.ceil(unit_times[-1] / cycle_mass)) + 1
    t_knots = [0.0]
    lam_knots = [0.0]
    for _ in range(cycles):
        for d, r in segments:
            t_knots.append(t_knots[-1] + d)
            lam_knots.append(lam_knots[-1] + d * r)
    arrivals = np.interp(unit_times, lam_knots, t_knots)
    return QueryTrace(query_ids=ids, arrivals=arrivals, k=k, skew=skew)


def bursty_trace(
    num_queries: int,
    num_vertices: int,
    *,
    base_rate: float = 500.0,
    burst_rate: float = 5000.0,
    base_seconds: float = 1.0,
    burst_seconds: float = 0.2,
    skew: float = 1.1,
    k: int = 10,
    rng: np.random.Generator | None = None,
) -> QueryTrace:
    """Alternating calm/burst arrival rates (the tail-latency stressor).

    Bursts drive queue depth far past its steady state, which is exactly
    where hedged requests earn their keep — the cluster bench replays
    this trace with hedging on and off.
    """
    return modulated_trace(
        num_queries,
        num_vertices,
        segments=(
            (base_seconds, base_rate),
            (burst_seconds, burst_rate),
        ),
        skew=skew,
        k=k,
        rng=rng,
    )
