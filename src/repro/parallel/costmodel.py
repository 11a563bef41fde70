"""Operation accounting and the makespan of independent tasks.

Algorithms in this repo run serially but *meter* themselves: every random
number drawn and memory word touched is counted in a
:class:`CostCounter`, with vectorizable work recorded as (elements,
chunks) so lane utilization survives (a degree-3 vertex fills 3 of 8 AVX
lanes — that under-utilization is what caps Figure 4B's AVX gain near
4x). The counters are priced in one place,
:func:`repro.sampling.cost.simulated_sampler_time` (Eq. 2 / Theorem 1),
and :func:`parallel_time` turns per-task prices into a makespan on a
given worker count — which is how the scaling figures are regenerated on
a small host.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostCounter", "parallel_time"]


@dataclass
class CostCounter:
    """Mutable tally of machine-level operations.

    ``mem_ops`` counts word-granularity touches to *shared* data (they pay
    the sampler contention factor), ``private_mem_ops`` touches to
    core-private data (cache-resident, no contention), ``vector_chunks``
    accumulates (elements, chunks) so lane utilization = elements /
    (chunks * lanes).
    """

    rand_ops: float = 0.0
    mem_ops: float = 0.0
    private_mem_ops: float = 0.0
    dram_bytes: float = 0.0
    flops: float = 0.0
    # Vectorizable element count and the number of vector chunks it was
    # issued as (each chunk = one vector instruction at full lane width).
    vector_elements: float = 0.0
    vector_chunks: float = 0.0

    def add(self, other: "CostCounter") -> None:
        """Accumulate another counter's tallies into this one."""
        self.rand_ops += other.rand_ops
        self.mem_ops += other.mem_ops
        self.private_mem_ops += other.private_mem_ops
        self.dram_bytes += other.dram_bytes
        self.flops += other.flops
        self.vector_elements += other.vector_elements
        self.vector_chunks += other.vector_chunks

    def copy(self) -> "CostCounter":
        """Independent copy of the current tallies."""
        return CostCounter(
            rand_ops=self.rand_ops,
            mem_ops=self.mem_ops,
            private_mem_ops=self.private_mem_ops,
            dram_bytes=self.dram_bytes,
            flops=self.flops,
            vector_elements=self.vector_elements,
            vector_chunks=self.vector_chunks,
        )

    def count_vector_op(self, elements: int, lanes: int) -> None:
        """Record ``elements`` of work issued as width-``lanes`` vectors."""
        if elements < 0 or lanes <= 0:
            raise ValueError("elements must be >= 0 and lanes > 0")
        self.vector_elements += elements
        self.vector_chunks += -(-elements // lanes)


def parallel_time(task_costs: list[float], cores: int) -> float:
    """Greedy (LPT) makespan of independent tasks on ``cores`` workers.

    Used for inter-subgraph parallelism: each sampler instance is one
    task. LPT is a 4/3-approximation of the optimal makespan, adequate for
    a simulator and matching how a work-stealing pool behaves in practice.
    """
    if cores <= 0:
        raise ValueError("cores must be positive")
    if not task_costs:
        return 0.0
    if cores == 1:
        return float(sum(task_costs))
    loads = [0.0] * min(cores, len(task_costs))
    for cost in sorted(task_costs, reverse=True):
        i = loads.index(min(loads))
        loads[i] += cost
    return max(loads)
