"""Feature propagation: spmm kernels, partitioning model, Algorithm 6."""

from .cache_model import (
    CacheSim,
    CacheStats,
    propagation_trace,
    simulate_propagation_misses,
)
from .feature_prop import PartitionedPropagator, PropagationReport
from .partition_model import (
    BYTES_PER_FEATURE,
    BYTES_PER_INDEX,
    PartitionPlan,
    brute_force_optimum,
    g_comm,
    g_comp,
    gamma_lower_bound,
    gamma_of_partition,
    gamma_random_partition,
    gcomm_lower_bound,
    theorem2_conditions_hold,
    theorem2_plan,
)
from .spmm import (
    MeanAggregator,
    full_graph_input,
    spmm_sum_numpy,
    spmm_sum_scipy,
)

__all__ = [
    "MeanAggregator",
    "full_graph_input",
    "spmm_sum_numpy",
    "spmm_sum_scipy",
    "PartitionedPropagator",
    "CacheSim",
    "CacheStats",
    "propagation_trace",
    "simulate_propagation_misses",
    "PropagationReport",
    "PartitionPlan",
    "g_comp",
    "g_comm",
    "gamma_lower_bound",
    "gamma_random_partition",
    "gamma_of_partition",
    "theorem2_plan",
    "theorem2_conditions_hold",
    "gcomm_lower_bound",
    "brute_force_optimum",
    "BYTES_PER_INDEX",
    "BYTES_PER_FEATURE",
]
