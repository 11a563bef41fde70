"""Graph samplers: frontier (serial + Dashboard), the GraphSAINT zoo
(random-walk / edge / independent-edge with normalization coefficients),
the subgraph pool, extensions."""

from .alias import AliasTable, dynamic_sampling_cost
from .base import ENGINES, GraphSampler, SampledSubgraph
from .cost import (
    pool_fill_times,
    probe_rounds_expected,
    sampler_cost_eq2,
    serial_sampler_cost,
    simulated_sampler_time,
    theorem1_max_processors,
    theorem1_speedup_bound,
)
from .dashboard import Dashboard, DashboardFrontierSampler
from .edge import DegreeWeightedEdgeSampler
from .edge_indp import IndependentEdgeSampler
from .extra import (
    ForestFireSampler,
    MetropolisHastingsWalkSampler,
    RandomNodeSampler,
    SnowballSampler,
)
from .parallel_sim import (
    CleanupEvent,
    PopEvent,
    SamplerReplay,
    record_replay,
    simulate_replay,
)
from .frontier import FrontierSampler
from .norm import (
    NormCoefficients,
    edge_draw_coefficients,
    edge_sampling_weights,
    empirical_coefficients,
    independent_edge_coefficients,
    loss_weights_from_probs,
)
from .rw import RandomWalkBatchSampler
from .scheduler import PrefetchStats, SubgraphPool
from .zoo import FAMILIES, make_sampler, norm_coefficients

__all__ = [
    "GraphSampler",
    "ENGINES",
    "PrefetchStats",
    "AliasTable",
    "dynamic_sampling_cost",
    "SampledSubgraph",
    "FrontierSampler",
    "Dashboard",
    "DashboardFrontierSampler",
    "RandomWalkBatchSampler",
    "DegreeWeightedEdgeSampler",
    "IndependentEdgeSampler",
    "FAMILIES",
    "make_sampler",
    "norm_coefficients",
    "NormCoefficients",
    "edge_sampling_weights",
    "edge_draw_coefficients",
    "independent_edge_coefficients",
    "empirical_coefficients",
    "loss_weights_from_probs",
    "SubgraphPool",
    "RandomNodeSampler",
    "ForestFireSampler",
    "MetropolisHastingsWalkSampler",
    "SnowballSampler",
    "PopEvent",
    "CleanupEvent",
    "SamplerReplay",
    "record_replay",
    "simulate_replay",
    "pool_fill_times",
    "sampler_cost_eq2",
    "serial_sampler_cost",
    "simulated_sampler_time",
    "probe_rounds_expected",
    "theorem1_max_processors",
    "theorem1_speedup_bound",
]
