"""The one pricer reproduces the modeled clock training used to keep.

Before the trainer stopped pricing live, every iteration charged three
modeled phases as it ran: the pool's share of a sampler fill, the
partitioned propagator's reports at the run's ``cores`` and the GEMM flop
count under the Amdahl model; ``EpochRecord.sim_time_total`` was their
running sum. ``pricer_golden.json`` holds those numbers as hex floats,
captured from the live path before it was deleted, and the tests below
rebuild each one from the counters a run records — bit for bit.

Generated once; there is no ``--write``: the live path they came from no
longer exists.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.experiments.repricing import cumulative_time, iteration_phase_times
from repro.graphs import make_dataset
from repro.parallel.machine import xeon_40core
from repro.propagation.feature_prop import PartitionedPropagator
from repro.sampling.dashboard import DashboardFrontierSampler
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer, IterationMetrics

GOLDEN = json.loads((pathlib.Path(__file__).parent / "pricer_golden.json").read_text())

# name -> (TrainConfig overrides, (cores, p_intra) the run was priced at).
FIG2_CONFIGS = {
    "default": ({}, (1, 1)),
    "prefetch_d2_w2": (dict(prefetch_depth=2, prefetch_workers=2), (1, 1)),
    "cores8_pintra8": ({}, (8, 8)),
    "rw_saint": (dict(sampler_family="rw", loss_norm="saint"), (1, 1)),
}


@pytest.fixture(scope="module")
def subgraph(medium_graph):
    sampler = DashboardFrontierSampler(medium_graph, frontier_size=40, budget=400)
    return sampler.sample(np.random.default_rng(0))


@pytest.mark.parametrize("key", sorted(GOLDEN["featprop_total_hex"]))
def test_feature_propagation_priced_at_the_cores_priced(subgraph, key):
    """One forward and one backward pass of width ``f``, priced at ``C``
    cores, equal the old propagator built for ``C`` cores: Theorem 2's
    ``Q`` is chosen at the core count being priced."""
    f, cores = (int(part.split("=")[1]) for part in key.split("/"))
    prop = PartitionedPropagator(subgraph.graph)
    x = np.random.default_rng(1).standard_normal((subgraph.num_vertices, f))
    prop.forward(x)
    prop.backward(x)
    metrics = IterationMetrics(
        sampler_stats=subgraph.stats,
        prop_reports=tuple(prop.reports),
        gemm_flops=0.0,
        subgraph_vertices=subgraph.num_vertices,
        subgraph_edges=subgraph.graph.num_edges,
    )
    ((_, featprop, _),) = iteration_phase_times(
        [metrics], xeon_40core(), cores=cores, p_intra=8, instances=cores
    )
    assert featprop.hex() == GOLDEN["featprop_total_hex"][key]


@pytest.fixture(scope="module")
def ppi():
    return make_dataset("ppi", scale=0.05, seed=0)


@pytest.mark.parametrize("name", sorted(FIG2_CONFIGS))
def test_fig2_modeled_curve_is_the_old_epoch_clock(ppi, name):
    """Fig. 2's modeled curve — the pricer's running total at the end of
    each epoch — is the old ``EpochRecord.sim_time_total``."""
    overrides, (cores, p_intra) = FIG2_CONFIGS[name]
    config = TrainConfig(
        hidden_dims=(16, 16), frontier_size=20, budget=120, epochs=3, seed=0,
        **overrides,
    )
    with GraphSamplingTrainer(ppi, config) as trainer:
        result = trainer.train()
    clock = cumulative_time(
        result.iteration_metrics,
        xeon_40core(),
        cores=cores,
        p_intra=p_intra,
        instances=trainer.pool.instances,
    )
    per_epoch = trainer.batches_per_epoch
    got = [clock[(rec.epoch + 1) * per_epoch - 1].hex() for rec in result.epochs]
    assert got == GOLDEN["fig2_sim_time_total_hex"][name]
