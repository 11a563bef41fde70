"""Import path of the pool from when prefetching was a separate class.

There is one pool, :class:`repro.sampling.scheduler.SubgraphPool`;
``PrefetchingSubgraphPool`` is the same class under the name the
end-to-end benchmark's tracer (``benchmarks/e2e/tracing.py``) resolves.
"""

from .scheduler import PrefetchStats, SubgraphPool

__all__ = ["PrefetchStats", "PrefetchingSubgraphPool"]

PrefetchingSubgraphPool = SubgraphPool
