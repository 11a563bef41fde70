"""The subgraph pool filled by worker processes (``workers > 1``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling.base import GraphSampler
from repro.sampling.dashboard import DashboardFrontierSampler
from repro.sampling.scheduler import SubgraphPool


@pytest.fixture(scope="module")
def sampler(medium_graph):
    return DashboardFrontierSampler(medium_graph, frontier_size=20, budget=100)


def _batch(sampler, count, *, workers, seed=0):
    depth = 0 if workers == 1 else workers
    with SubgraphPool(sampler, depth=depth, workers=workers, seed=seed) as pool:
        return [pool.get() for _ in range(count)]


class TestSampleBatchParallel:
    def test_inline_path(self, sampler):
        subs = _batch(sampler, 3, workers=1)
        assert len(subs) == 3
        assert all(s.num_vertices > 0 for s in subs)

    def test_multiprocess_path(self, sampler):
        subs = _batch(sampler, 4, workers=2)
        assert len(subs) == 4
        assert all(s.num_vertices > 0 for s in subs)

    def test_deterministic_across_worker_counts(self, sampler):
        """Subgraph i depends only on (seed, i), not on scheduling."""
        a = _batch(sampler, 4, workers=1, seed=7)
        b = _batch(sampler, 4, workers=2, seed=7)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.vertex_map, sb.vertex_map)

    def test_batches_are_independent_draws(self, sampler):
        subs = _batch(sampler, 3, workers=1, seed=1)
        assert not np.array_equal(subs[0].vertex_map, subs[1].vertex_map)

    def test_validation(self, sampler):
        with pytest.raises(ValueError):
            SubgraphPool(sampler, depth=-1)
        with pytest.raises(ValueError):
            SubgraphPool(sampler, depth=1, workers=0)

    def test_zero_count(self, medium_graph):
        """An inline pool that is never asked never samples."""

        class Untouchable(GraphSampler):
            def _draw(self, rng):
                raise AssertionError("sampled ahead of the consumer")

        assert _batch(Untouchable(medium_graph), 0, workers=1) == []


class TestParallelSamplerPool:
    def test_context_manager_batches(self, sampler):
        with SubgraphPool(sampler, depth=2, workers=2, seed=0) as pool:
            first = [pool.get() for _ in range(2)]
            second = [pool.get() for _ in range(2)]
        # Later takes continue the seed stream (no repeats).
        assert not np.array_equal(first[0].vertex_map, second[0].vertex_map)
        with pytest.raises(RuntimeError, match="closed"):
            pool.get()

    def test_single_worker_inline(self, sampler):
        pool = SubgraphPool(sampler, depth=0, workers=4, seed=0)
        assert pool._executor is None
        assert len([pool.get() for _ in range(3)]) == 3

    def test_close_idempotent(self, sampler):
        pool = SubgraphPool(sampler, depth=2, workers=2, seed=0)
        pool.close()
        pool.close()
