"""The subgraph pool (Algorithm 5): one seed stream whatever the execution
mode, and the one modeled price of a pool fill (applied after the run:
the pool itself returns subgraphs and their counters only)."""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.experiments.repricing import iteration_phase_times
from repro.parallel.machine import MachineSpec, xeon_40core
from repro.sampling.cost import pool_fill_times
from repro.sampling.dashboard import DashboardFrontierSampler
from repro.experiments.ablations import RandomNodeSampler
from repro.sampling.scheduler import PrefetchStats, SubgraphPool
from repro.sampling.zoo import FAMILIES, make_sampler

# Generated at the parent of the one-pool change (commit 1294a97):
# ``PoolFill.simulated_makespan`` of the old batch-refilling pool and
# digests of the old ``PrefetchingSubgraphPool`` stream, whose modeled
# times the tests below now price from each subgraph's stats.
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "pool_golden.json").read_text()
)


@pytest.fixture
def sampler(medium_graph):
    return DashboardFrontierSampler(medium_graph, frontier_size=20, budget=100)


@pytest.fixture
def eight_stats(sampler):
    rng = np.random.default_rng(0)
    return [sampler.sample(rng).stats for _ in range(8)]


def _priced(sub, instances: int) -> float:
    """The share of a fill the pool used to return beside each subgraph:
    ``instances`` scalar sampler instances on the default machine."""
    (makespan,) = pool_fill_times([sub.stats], MachineSpec(), instances=instances)
    return makespan / instances


def _digest(pairs) -> str:
    h = hashlib.sha256()
    for sub, sim in pairs:
        h.update(np.ascontiguousarray(sub.vertex_map, dtype=np.int64).tobytes())
        h.update(json.dumps(sorted(sub.stats.items())).encode())
        h.update(float(sim).hex().encode())
    return h.hexdigest()


class TestPool:
    def test_validation(self, sampler):
        for bad in ({"depth": -1}, {"workers": 0}):
            with pytest.raises(ValueError):
                SubgraphPool(sampler, **bad)

    def test_get_refills_when_empty(self, sampler):
        """Taking a subgraph empties a slot and get() fills it again."""
        with SubgraphPool(sampler, depth=4, seed=0) as pool:
            assert len(pool._slots) == 4
            sub = pool.get()
            assert sub.num_vertices > 0
            assert len(pool._slots) == 4
            assert pool.stats.submitted == 5

    def test_no_refill_while_warm(self, sampler):
        """The pool never runs further ahead than depth: k gets cost
        exactly k submissions beyond the initial window."""
        for depth in (0, 3):
            with SubgraphPool(sampler, depth=depth, seed=0) as pool:
                for k in range(1, 5):
                    pool.get()
                    assert pool._next == depth + k

    def test_depth_zero_samples_inline(self, sampler):
        """Nothing is sampled before it is asked for, no executor exists,
        and the in-flight telemetry stays all zero."""
        pool = SubgraphPool(sampler, seed=3)
        assert pool._executor is None and pool._next == 0
        sub = pool.get()
        assert sub.num_vertices > 0
        assert pool._next == 1
        assert pool.stats == PrefetchStats()

    def test_amortized_time_is_makespan_fraction(self, sampler, eight_stats):
        """A fill's makespan is shared by the subgraphs it produced; the
        pricer charges a pool's subgraph exactly that share."""
        from repro.train.trainer import IterationMetrics

        machine = xeon_40core()
        (makespan,) = pool_fill_times(eight_stats, machine, instances=8)
        assert max(pool_fill_times(eight_stats, machine, instances=1)) < makespan
        with SubgraphPool(sampler, depth=2, workers=2, seed=1) as pool:
            sub = pool.get()
        metrics = IterationMetrics(
            sampler_stats=sub.stats, prop_reports=(), gemm_flops=0.0,
            subgraph_vertices=sub.num_vertices, subgraph_edges=sub.graph.num_edges,
        )
        ((t, _, _),) = iteration_phase_times(
            [metrics], machine, cores=1, p_intra=1, instances=pool.instances
        )
        (pair,) = pool_fill_times([sub.stats], machine, instances=2)
        assert t == pair / 2

    def test_inter_parallel_speedup_near_linear(self, eight_stats):
        """Filling with 8 instances on 8 cores beats serial by ~8x (LPT of
        homogeneous tasks, less the memory contention of 8 instances)."""
        machine = xeon_40core()
        serial = sum(pool_fill_times(eight_stats, machine, instances=1))
        (parallel,) = pool_fill_times(eight_stats, machine, instances=8)
        assert 5.0 <= serial / parallel <= 8.0

    def test_avx_reduces_fill_time(self, eight_stats):
        machine = xeon_40core()
        (scalar,) = pool_fill_times(eight_stats[:4], machine, instances=4, p_intra=1)
        (vector,) = pool_fill_times(eight_stats[:4], machine, instances=4, p_intra=8)
        assert vector < scalar

    def test_unmetered_sampler_uses_fallback_cost(self, medium_graph):
        pool = SubgraphPool(RandomNodeSampler(medium_graph, budget=50))
        sub = pool.get()
        assert sub.num_vertices == 50
        assert pool_fill_times([sub.stats], xeon_40core(), instances=1) == [50.0]

    @pytest.mark.parametrize("key", sorted(GOLDEN["fill_makespans_hex"]))
    def test_fill_price_pinned(self, eight_stats, key):
        """Bit-identical to the old pool's refill makespans at
        ``p_inter x p_intra``, 8 subgraphs from ``default_rng(0)``."""
        instances, p_intra = map(int, key.split("x"))
        fills = pool_fill_times(
            eight_stats, xeon_40core(), instances=instances, p_intra=p_intra
        )
        assert [t.hex() for t in fills] == GOLDEN["fill_makespans_hex"][key]

    def test_fills_cycle_through_few_subgraphs(self, eight_stats):
        """More instances than metered subgraphs: the batch cycles them."""
        machine = xeon_40core()
        (two,) = pool_fill_times(eight_stats[:1], machine, instances=2)
        (one,) = pool_fill_times(eight_stats[:1] * 2, machine, instances=2)
        assert two == one
        assert len(pool_fill_times(eight_stats, machine, instances=3, fills=5)) == 5
        with pytest.raises(ValueError):
            pool_fill_times([], machine, instances=1)


class TestExecutionModeInvariance:
    """depth / workers change when a subgraph is sampled, never which."""

    MODES = [(0, 1), (1, 1), (3, 1), (2, 2)]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_subgraphs_in_every_mode(self, medium_graph, family):
        runs = []
        for depth, workers in self.MODES:
            sampler = make_sampler(family, medium_graph, budget=100)
            with SubgraphPool(sampler, depth=depth, workers=workers, seed=5) as pool:
                runs.append([pool.get() for _ in range(12)])
        for run in runs[1:]:
            for a, b in zip(runs[0], run):
                assert np.array_equal(a.vertex_map, b.vertex_map)
                assert a.stats == b.stats

    @pytest.mark.parametrize("key", sorted(GOLDEN["prefetch_stream_sha256"]))
    @pytest.mark.parametrize("depth", [0, 2])
    def test_stream_did_not_move(self, medium_graph, key, depth):
        """The depth>0 stream is the old prefetching pool's, bit for bit
        (subgraphs, stats and modeled times), and depth 0 now shares it."""
        family, seed = key.split("/")
        sampler = make_sampler(family, medium_graph, budget=100)
        with SubgraphPool(sampler, depth=depth, seed=int(seed)) as pool:
            subs = [pool.get() for _ in range(12)]
        got = _digest([(sub, _priced(sub, pool.instances)) for sub in subs])
        assert got == GOLDEN["prefetch_stream_sha256"][key]
