"""Communication model and partitioning theory (Section V-B of the paper).

Feature propagation in the sampled subgraph pulls every vertex's neighbor
features. The paper considers partitioning the graph into ``P`` vertex
partitions and each feature vector into ``Q`` equal parts, and derives (its
Equation 3) the computation and communication over all ``P*Q`` rounds:

    g_comp(P, Q) = n * d * f                      (partition-independent)
    g_comm(P, Q) = 2*Q*n*d + 8*P*n*f*gamma_P      (bytes)

where ``gamma_P = |V_src^(i)| / |V|`` is the expansion of a partition's
source set (INT16 vertex indices = 2 bytes streamed per edge per feature
round; DOUBLE features = 8 bytes of random access per source vertex per
feature chunk). The minimization problem (Equation 4) constrains ``P*Q >=
C`` (use all cores) and ``8*n*f*gamma_P / Q <= S_cache`` (each round's
feature working set must be cache-resident).

Theorem 2 proves the *feature-only* solution ``P = 1, Q = max(C,
8nf/S_cache)`` is a 2-approximation whenever ``C <= 4f/d`` and ``2nd <=
S_cache`` — no graph partitioner needed, which also buys optimal load
balance and zero preprocessing. This module implements the model, the
theorem's construction, and a brute-force optimum for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..graphs.csr import CSRGraph

__all__ = [
    "g_comp",
    "g_comm",
    "gamma_lower_bound",
    "gamma_random_partition",
    "gamma_of_partition",
    "theorem2_plan",
    "theorem2_conditions_hold",
    "gcomm_lower_bound",
    "brute_force_optimum",
    "PartitionPlan",
]

BYTES_PER_INDEX = 2  # INT16 subgraph vertex ids (paper footnote 2)
BYTES_PER_FEATURE = 8  # DOUBLE feature values


def g_comp(n: int, d: float, f: int) -> float:
    """Equation 3, computation: ``n * d * f`` multiply-adds."""
    return float(n) * d * f


def g_comm(
    n: int, d: float, f: int, p: int, q: int, gamma_p: float
) -> float:
    """Equation 3, communication in bytes: ``2 Q n d + 8 P n f gamma_P``."""
    if p < 1 or q < 1:
        raise ValueError("P and Q must be >= 1")
    if not (0.0 < gamma_p <= 1.0):
        raise ValueError("gamma_P must lie in (0, 1]")
    return BYTES_PER_INDEX * q * n * d + BYTES_PER_FEATURE * p * n * f * gamma_p


def gamma_lower_bound(p: int) -> float:
    """``gamma_P >= 1/P`` for any partitioner (each part needs its own)."""
    return 1.0 / p


def gamma_random_partition(p: int, degrees: np.ndarray) -> float:
    """Expected ``gamma_P`` of a uniform random vertex partition.

    Vertex ``u`` is a source for partition ``i`` iff ``u`` or one of its
    neighbors lands in ``V(i)`` (self-connections included per the paper);
    under uniform assignment that misses with probability
    ``(1 - 1/P)^(deg(u) + 1)``.
    """
    if p < 1:
        raise ValueError("P must be >= 1")
    if p == 1:
        return 1.0
    degrees = np.asarray(degrees, dtype=np.float64)
    return float(np.mean(1.0 - (1.0 - 1.0 / p) ** (degrees + 1.0)))


def gamma_of_partition(graph: CSRGraph, assignment: np.ndarray) -> float:
    """Measured average ``|V_src^(i)| / |V|`` of a concrete partition."""
    assignment = np.asarray(assignment)
    if assignment.shape[0] != graph.num_vertices:
        raise ValueError("assignment length must equal num_vertices")
    p = int(assignment.max()) + 1 if assignment.size else 1
    n = graph.num_vertices
    src = graph.edge_sources()
    # Source sets: for each partition i, vertices with a neighbor in V(i),
    # plus V(i) itself (self-connection).
    is_source = np.zeros((p, n), dtype=bool)
    is_source[assignment, np.arange(n)] = True
    np.logical_or.at(is_source, (assignment[graph.indices], src), True)
    return float(is_source.sum() / (p * n))


@dataclass(frozen=True)
class PartitionPlan:
    """A chosen (P, Q) with its modeled costs."""

    p: int
    q: int
    gamma_p: float
    comm_bytes: float
    comp_ops: float
    cache_bytes_per_round: float
    feasible: bool


def theorem2_plan(
    *, n: int, d: float, f: int, cores: int, cache_bytes: int
) -> PartitionPlan:
    """The paper's solution: ``P=1, Q=max(C, ceil(8nf/S_cache))``.

    Theorem 2 proves ``g_comm <= 2 * 8nf`` for the real-valued
    ``Q = 8nf/S_cache``. Rounding ``Q`` up to an integer adds at most one
    round of index traffic, so under the theorem's preconditions the
    plan returned here satisfies ``g_comm <= 2 * 8nf + 2nd`` (e.g.
    ``n=5042, d=24, f=65, C=1``: ``Q = ceil(10.0015) = 11``, ratio
    2.0154).
    """
    if min(n, f, cores, cache_bytes) <= 0:
        raise ValueError("n, f, cores, cache_bytes must be positive")
    q = max(cores, int(np.ceil(BYTES_PER_FEATURE * n * f / cache_bytes)))
    gamma = 1.0
    comm = g_comm(n, d, f, 1, q, gamma)
    per_round = BYTES_PER_FEATURE * n * f * gamma / q
    return PartitionPlan(
        p=1,
        q=q,
        gamma_p=gamma,
        comm_bytes=comm,
        comp_ops=g_comp(n, d, f),
        cache_bytes_per_round=per_round,
        feasible=per_round <= cache_bytes and q >= cores,
    )


def theorem2_conditions_hold(
    *, n: int, d: float, f: int, cores: int, cache_bytes: int
) -> bool:
    """Preconditions of Theorem 2: ``C <= 4f/d`` and ``2nd <= S_cache``."""
    return cores <= 4.0 * f / d and 2.0 * n * d <= cache_bytes


def gcomm_lower_bound(n: int, f: int) -> float:
    """``g_comm >= 8nf`` for every feasible (P, Q) (Theorem 2's proof)."""
    return float(BYTES_PER_FEATURE) * n * f


#: The exhaustive search's bounds on the graph (P) and feature (Q) splits.
MAX_P, MAX_Q = 64, 4096


def brute_force_optimum(
    *,
    n: int,
    d: float,
    f: int,
    cores: int,
    cache_bytes: int,
    gamma_fn: Callable[[int], float] | None = None,
) -> PartitionPlan:
    """Exhaustive search over integer (P, Q) up to (:data:`MAX_P`,
    :data:`MAX_Q`) for the minimal ``g_comm``.

    ``gamma_fn`` models the partitioner quality; the default is the
    information-theoretic best case ``gamma_P = 1/P``, which makes the
    returned optimum a *lower bound* on any real partitioner — exactly the
    comparison Theorem 2's approximation ratio is stated against.
    """
    if gamma_fn is None:
        gamma_fn = gamma_lower_bound
    best: PartitionPlan | None = None
    for p in range(1, MAX_P + 1):
        gamma = gamma_fn(p)
        # For fixed P, g_comm increases with Q, so the best feasible Q is
        # the smallest one satisfying both constraints.
        q_cache = int(np.ceil(BYTES_PER_FEATURE * n * f * gamma / cache_bytes))
        q_cores = int(np.ceil(cores / p))
        q = max(1, q_cache, q_cores)
        if q > MAX_Q:
            continue
        comm = g_comm(n, d, f, p, q, gamma)
        per_round = BYTES_PER_FEATURE * n * f * gamma / q
        plan = PartitionPlan(
            p=p,
            q=q,
            gamma_p=gamma,
            comm_bytes=comm,
            comp_ops=g_comp(n, d, f),
            cache_bytes_per_round=per_round,
            feasible=True,
        )
        if best is None or plan.comm_bytes < best.comm_bytes:
            best = plan
    if best is None:
        raise ValueError("no feasible (P, Q) within the search bounds")
    return best
