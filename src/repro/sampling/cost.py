"""Sampler cost model: Equation 2 and Theorem 1 of the paper.

Two complementary entry points:

* **Analytic** — :func:`sampler_cost_eq2` evaluates the paper's closed-form
  per-subgraph cost for ``p`` processors, and :func:`theorem1_speedup_bound`
  / :func:`theorem1_max_processors` reproduce the scalability guarantee
  (speedup >= p / (1 + eps) for all p <= eps*d*(4 + 3/(eta-1)) - eta).

* **Empirical** — :func:`simulated_sampler_time` converts the *measured*
  operation statistics of one real :class:`DashboardFrontierSampler` run
  into simulated time on a machine with ``p_intra`` vector lanes. Probing
  is special-cased: with ``p`` lanes probing concurrently, the expected
  number of rounds to find a valid entry is ``1 / (1 - (1 - r)^p)`` where
  ``r`` is the measured valid-entry ratio, exactly the term in Eq. 2.
"""

from __future__ import annotations

import numpy as np

from ..parallel.costmodel import VECTOR_LANES, parallel_time
from ..parallel.machine import MachineSpec

__all__ = [
    "sampler_cost_eq2",
    "serial_sampler_cost",
    "theorem1_speedup_bound",
    "theorem1_max_processors",
    "probe_rounds_expected",
    "simulated_sampler_time",
    "pool_fill_times",
]


def probe_rounds_expected(valid_ratio: float, p: int) -> float:
    """Expected probing rounds for >= 1 hit with ``p`` concurrent probes."""
    if not (0.0 < valid_ratio <= 1.0):
        raise ValueError("valid_ratio must lie in (0, 1]")
    if p <= 0:
        raise ValueError("p must be positive")
    miss = (1.0 - valid_ratio) ** p
    return 1.0 / (1.0 - miss)


def sampler_cost_eq2(
    *,
    n: int,
    m: int,
    d: float,
    eta: float,
    p: int,
) -> float:
    """Equation 2: cost to sample one subgraph with ``p`` processors.

    ``(COSTrand / (1 - (1 - 1/eta)^p) + (4 + 3/(eta-1)) * d * COSTmem / p)
    * (n - m)`` in units of ``COSTrand = COSTmem = 1`` (the paper's
    analysis assumes the two are equal).
    """
    if n < m:
        raise ValueError("budget n must be >= frontier size m")
    if eta <= 1.0:
        raise ValueError("eta must exceed 1")
    probe = probe_rounds_expected(1.0 / eta, p)
    update = (4.0 + 3.0 / (eta - 1.0)) * d / p
    return (probe + update) * (n - m)


def serial_sampler_cost(*, n: int, m: int, d: float, eta: float) -> float:
    """Eq. 2 at p=1: ``(eta*COSTrand + (4 + 3/(eta-1)) d COSTmem)(n-m)``."""
    return sampler_cost_eq2(n=n, m=m, d=d, eta=eta, p=1)


def theorem1_max_processors(*, d: float, eta: float, epsilon: float) -> float:
    """Largest p for which Theorem 1 guarantees speedup >= p/(1+eps)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return epsilon * d * (4.0 + 3.0 / (eta - 1.0)) - eta


def theorem1_speedup_bound(
    *, p: int, d: float, eta: float, epsilon: float
) -> float | None:
    """Guaranteed speedup ``p / (1 + eps)``, or None when p is out of range."""
    if p > theorem1_max_processors(d=d, eta=eta, epsilon=epsilon):
        return None
    return p / (1.0 + epsilon)


def simulated_sampler_time(
    stats: dict[str, float],
    machine: MachineSpec,
    *,
    p_intra: int = 1,
    contention_factor: float = 1.0,
) -> float:
    """Simulated time of one metered sampler run with ``p_intra`` lanes.

    Parameters
    ----------
    stats:
        The ``stats`` dict of a :class:`DashboardFrontierSampler` sample
        (keys: pops, probes, capacity, rand_ops, mem_ops, private_mem_ops,
        vector_elements, vector_chunks).
    p_intra:
        Intra-sampler parallelism (1 = scalar; 8 = AVX2 over 32-bit ints).
    contention_factor:
        Per-instance memory slowdown when many sampler instances run
        concurrently (see ``MachineSpec.sampler_contention_factor``);
        applied to every memory-bound term, not to random-number
        generation.
    """
    if p_intra <= 0:
        raise ValueError("p_intra must be positive")
    if contention_factor < 1.0:
        raise ValueError("contention_factor must be >= 1")
    pops = stats["pops"]
    probes = stats["probes"]
    if pops > 0 and probes > 0:
        # Measured serial probes imply the empirical valid ratio:
        # probes/pop = 1/r  =>  r = pops/probes.
        r = min(max(pops / probes, 1e-9), 1.0)
        probe_rounds = pops * probe_rounds_expected(r, p_intra)
    else:
        probe_rounds = 0.0
    probe_time = probe_rounds * (
        machine.cost_rand + machine.cost_mem * contention_factor
    )

    # Entry updates (invalidate/append/cleanup moves): vector chunks when
    # p_intra > 1, scalar element count otherwise. The metered chunks were
    # recorded at VECTOR_LANES width; rescale to p_intra lanes from
    # the element distribution: chunks_p = elements/p * utilization-free
    # upper bound, but per-vertex granularity matters, so reconstruct from
    # the recorded pair (elements, chunks_at_lanes).
    elements = stats["vector_elements"]
    chunks_at_lanes = stats["vector_chunks"]
    if p_intra == 1:
        update_time = elements * machine.cost_mem
    else:
        update_time = _rescale_chunks(elements, chunks_at_lanes, p_intra) * machine.cost_mem
    update_time *= contention_factor
    # Neighbor-selection adjacency reads are shared-graph traffic.
    shared = stats.get("mem_ops", 0.0) - probes  # probe reads handled above
    shared_time = max(shared, 0.0) * machine.cost_mem * contention_factor
    private_time = stats.get("private_mem_ops", 0.0) * machine.cost_mem
    rand_time = (stats.get("rand_ops", 0.0) - probes) * machine.cost_rand
    return probe_time + update_time + shared_time + private_time + max(rand_time, 0.0)


def pool_fill_times(
    stats: list[dict[str, float]],
    machine: MachineSpec,
    *,
    instances: int,
    p_intra: int = 1,
    fills: int | None = None,
) -> list[float]:
    """Modeled makespan of each pool fill by ``instances`` sampler instances.

    Algorithm 5 refills the pool with ``instances`` sampler instances
    running together, one subgraph each: every instance pays the
    machine's memory-contention factor at that occupancy, and a fill
    takes the LPT makespan of its batch on ``min(instances, num_cores)``
    cores. Divide a fill's makespan by ``instances`` for the amortized
    per-subgraph sampling time a training iteration sees.

    ``stats`` are the ``SampledSubgraph.stats`` dicts of the subgraphs
    drawn so far; fill ``k`` takes subgraphs ``k * instances`` onward,
    cycling through ``stats`` — subgraphs are i.i.d., so cycling is
    unbiased and prices the steady state even from fewer metered
    subgraphs than instances. Unmetered samplers (no counter keys) are
    charged their reported ``distribution_work``, else their subgraph
    size. ``fills`` defaults to one pass over ``stats``.
    """
    if not stats:
        raise ValueError("no sampler stats to price")
    contention = machine.sampler_contention_factor(instances)
    costs = [
        simulated_sampler_time(
            s, machine, p_intra=p_intra, contention_factor=contention
        )
        if "vector_elements" in s
        else s.get("distribution_work", s["unique_vertices"])
        for s in stats
    ]
    if fills is None:
        fills = -(-len(costs) // instances)
    cores = min(instances, machine.num_cores)
    return [
        parallel_time(
            [costs[(k * instances + i) % len(costs)] for i in range(instances)],
            cores,
        )
        for k in range(fills)
    ]


def _rescale_chunks(elements: float, chunks: float, target_lanes: int) -> float:
    """Estimate vector chunks at a different lane width.

    The metering recorded, per vectorized region of length L,
    ``ceil(L / VECTOR_LANES)`` chunks. Without per-region lengths we use
    the average region length ``L_bar = elements / regions`` where regions
    is estimated from the recorded pair; ceil waste then scales as
    ``regions * ceil(L_bar / target_lanes)``. Exact for uniform degrees and
    a close bound otherwise.
    """
    if elements <= 0:
        return 0.0
    if target_lanes == VECTOR_LANES:
        return chunks
    # regions * (L_bar/recorded + waste) = chunks; approximate the number of
    # regions from the average ceil overhead of 0.5 chunk per region.
    regions = max(chunks - elements / VECTOR_LANES, 0.0) * 2.0
    if regions <= 0.0:
        # Perfectly divisible recordings: assume no ceil waste either way.
        return elements / target_lanes
    l_bar = elements / regions
    return regions * np.ceil(l_bar / target_lanes)
