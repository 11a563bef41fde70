"""Set-associative cache simulator for the propagation access pattern.

Theorem 2's cache constraint (``8 n f / Q <= S_cache``) asserts that with
the right feature-partition count the per-round feature working set stays
cache-resident, so the random gathers of feature aggregation stop missing
to DRAM. The closed-form model takes that as an assumption; this module
*checks the mechanism*: it simulates an LRU set-associative cache over the
actual address trace of a partitioned propagation pass and reports miss
rates — partitioned runs should approach the compulsory-miss floor, while
unpartitioned runs on working sets larger than the cache should thrash.

The simulator is deliberately simple (single level, LRU, word-granularity
addresses grouped into lines) and runs only at small scale in the tests;
no experiment, benchmark or CLI verb reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics

__all__ = ["CacheSim", "CacheStats", "propagation_trace", "simulate_propagation_misses"]


@dataclass(frozen=True)
class CacheStats:
    accesses: int
    misses: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class CacheSim:
    """LRU set-associative cache over word addresses.

    Parameters
    ----------
    capacity_bytes:
        Total cache capacity.
    line_bytes:
        Cache-line size (addresses are mapped to lines).
    ways:
        Associativity (use a power of two; sets = capacity / line / ways).
    """

    def __init__(
        self, capacity_bytes: int, *, line_bytes: int = 64, ways: int = 8
    ) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ValueError("cache parameters must be positive")
        num_lines = capacity_bytes // line_bytes
        if num_lines < ways:
            raise ValueError("capacity too small for the requested associativity")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = max(num_lines // ways, 1)
        # tags[set, way] = line tag; lru[set, way] = age counter.
        self._tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self._ages = np.zeros((self.num_sets, ways), dtype=np.int64)
        self._clock = 0
        self.accesses = 0
        self.misses = 0

    def access(self, byte_addresses: np.ndarray) -> int:
        """Touch addresses in order; returns misses incurred by this call."""
        lines = np.asarray(byte_addresses, dtype=np.int64) // self.line_bytes
        sets = lines % self.num_sets
        misses_before = self.misses
        for line, s in zip(lines, sets):
            self._clock += 1
            self.accesses += 1
            row_tags = self._tags[s]
            hit = np.flatnonzero(row_tags == line)
            if hit.size:
                self._ages[s, hit[0]] = self._clock
                continue
            self.misses += 1
            victim = int(np.argmin(self._ages[s]))
            self._tags[s, victim] = line
            self._ages[s, victim] = self._clock
        return self.misses - misses_before

    @property
    def stats(self) -> CacheStats:
        return CacheStats(accesses=self.accesses, misses=self.misses)


def propagation_trace(
    graph: CSRGraph, *, f: int, q: int, feature_base: int = 0
) -> np.ndarray:
    """Byte-address trace of the feature gathers of one propagation pass.

    For each of the ``q`` feature chunks, every edge (u, v) reads vertex
    u's chunk of ``f/q`` doubles from the feature matrix (row-major
    ``n x f`` doubles starting at ``feature_base``). CSR index reads are
    streamed (hardware-prefetchable) and excluded; the question Theorem 2
    answers is about the random feature gathers.
    """
    if f <= 0 or q <= 0 or q > f:
        raise ValueError("need 0 < q <= f")
    sources = graph.indices.astype(np.int64)  # gathered rows, edge order
    bounds = np.linspace(0, f, q + 1).astype(np.int64)
    traces = []
    for j in range(q):
        lo, hi = int(bounds[j]), int(bounds[j + 1])
        if lo == hi:
            continue
        width = hi - lo
        # Each gather touches `width` consecutive doubles of the row; one
        # address per 8 bytes keeps traces small while hitting every line.
        offsets = (np.arange(width, dtype=np.int64) + lo) * 8
        addrs = (
            feature_base
            + sources[:, None] * (f * 8)
            + offsets[None, :]
        ).reshape(-1)
        traces.append(addrs)
    return np.concatenate(traces) if traces else np.empty(0, dtype=np.int64)


def simulate_propagation_misses(
    graph: CSRGraph,
    *,
    f: int,
    q: int,
    capacity_bytes: int,
    line_bytes: int = 64,
    ways: int = 8,
) -> CacheStats:
    """Miss statistics of one partitioned propagation pass."""
    sim = CacheSim(capacity_bytes, line_bytes=line_bytes, ways=ways)
    sim.access(propagation_trace(graph, f=f, q=q))
    if obs_enabled():
        obs_metrics.inc("prop.cache_sim.accesses", sim.accesses)
        obs_metrics.inc("prop.cache_sim.hits", sim.accesses - sim.misses)
        obs_metrics.inc("prop.cache_sim.misses", sim.misses)
    return sim.stats
