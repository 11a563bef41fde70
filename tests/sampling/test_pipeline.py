"""The subgraph pool with subgraphs in flight (depth > 0): window
semantics, telemetry, failure handling + trainer integration."""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs.trace import walk
from repro.sampling.base import GraphSampler, SampledSubgraph
from repro.sampling.dashboard import DashboardFrontierSampler
from repro.sampling.pipeline import PrefetchingSubgraphPool
from repro.sampling.scheduler import PrefetchStats, SubgraphPool
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer


def _pool(sampler, **kwargs) -> SubgraphPool:
    return SubgraphPool(sampler, **kwargs)


def _vertex_maps(pool: SubgraphPool, n: int) -> list[np.ndarray]:
    return [pool.get().vertex_map for _ in range(n)]


@pytest.fixture
def sampler(medium_graph):
    return DashboardFrontierSampler(
        medium_graph, frontier_size=20, budget=120
    )


class TestSubgraphPrefetcher:
    def test_determinism_across_instances(self, sampler):
        def collect(n):
            with _pool(sampler, depth=2, seed=42) as pf:
                return _vertex_maps(pf, n)

        a = collect(4)
        b = collect(4)
        assert len(a) == len(b) == 4
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_determinism_independent_of_depth(self, sampler):
        """The i-th subgraph depends only on the seed stream, never on
        how far ahead the producer ran."""
        with _pool(sampler, depth=1, seed=7) as shallow:
            a = _vertex_maps(shallow, 3)
        with _pool(sampler, depth=3, seed=7) as deep:
            b = _vertex_maps(deep, 3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_stats_accounting(self, sampler):
        with _pool(sampler, depth=2, seed=0) as pf:
            for _ in range(5):
                pf.get()
            st = pf.stats
            assert isinstance(st, PrefetchStats)
            assert st.gets == 5
            # depth initial submissions + one top-up per get.
            assert st.submitted == 2 + 5
            assert st.consumer_stall_seconds >= 0.0
            assert st.staleness_seconds >= 0.0
            assert st.producer_stall_seconds <= st.staleness_seconds
            assert st.mean_staleness == pytest.approx(
                st.staleness_seconds / 5
            )

    def test_close_is_idempotent_and_get_after_close_raises(self, sampler):
        pf = _pool(sampler, depth=1, seed=0)
        pf.close()
        pf.close()
        with pytest.raises(RuntimeError, match="closed"):
            pf.get()

    def test_validation(self, sampler):
        with pytest.raises(ValueError, match="depth"):
            _pool(sampler, depth=-1)
        with pytest.raises(ValueError, match="workers"):
            _pool(sampler, depth=1, workers=0)

    def test_obs_metrics_emitted(self, sampler):
        obs.reset()
        with obs.enabled():
            with _pool(sampler, depth=2, seed=1) as pf:
                for _ in range(3):
                    pf.get()
            snap = obs.metrics.snapshot()
        obs.reset()
        assert snap["counters"]["pipeline.gets"] == 3
        assert snap["counters"]["pipeline.submitted"] == 3
        assert "pipeline.queue_depth" in snap["gauges"]
        hists = snap["histograms"]
        assert hists["pipeline.consumer_stall_seconds"]["count"] == 3
        assert hists["pipeline.staleness_seconds"]["count"] == 3

    @pytest.mark.slow
    def test_process_pool_matches_thread_results(self, sampler):
        """workers>1 goes through the pickled-sampler worker processes;
        the seed stream is identical, so the subgraphs are too."""
        with _pool(sampler, depth=2, workers=2, seed=5) as pf:
            procs = _vertex_maps(pf, 3)
        with _pool(sampler, depth=2, workers=1, seed=5) as pf:
            threads = _vertex_maps(pf, 3)
        for x, y in zip(procs, threads):
            assert np.array_equal(x, y)


class TestCrossFamilySeeding:
    """The ISSUE-7 seeding audit: adding sampler families must not shift
    any existing config's subgraph stream.

    Entropy is a pure function of ``(seed, submission_index)``
    (``SeedSequence(seed, spawn_key=(i,))``), so pools never share
    spawn state: interleaving pools of *other* families — created
    before, after, or between gets — cannot perturb a family's draws."""

    def test_entropy_is_stateless(self, sampler):
        with _pool(sampler, depth=1, seed=13) as pf:
            # Entropy depends only on (seed, index): recomputing any index
            # gives the same value, in any order.
            values = [pf._entropy_at(i) for i in (3, 0, 3, 1, 0)]
            assert values[0] == values[2]
            assert values[1] == values[4]
            expected = [
                int(
                    np.random.SeedSequence(13, spawn_key=(i,)).generate_state(1)[0]
                )
                for i in (3, 0, 3, 1, 0)
            ]
            assert values == expected

    def test_interleaved_families_do_not_shift_seeds(self, medium_graph):
        """A dashboard pool's stream is identical whether it runs alone
        or interleaved with pools of every other family at the same
        seed."""
        from repro.sampling.zoo import FAMILIES, make_sampler

        def dashboard():
            return make_sampler("dashboard", medium_graph, budget=100)

        with _pool(dashboard(), depth=2, seed=21) as pf:
            solo = _vertex_maps(pf, 4)

        others = [
            _pool(make_sampler(fam, medium_graph, budget=100), depth=2, seed=21)
            for fam in FAMILIES
            if fam != "dashboard"
        ]
        try:
            with _pool(dashboard(), depth=2, seed=21) as pf:
                interleaved = []
                for other in others:
                    other.get()  # concurrent same-seed activity
                    interleaved += _vertex_maps(pf, 1)
                interleaved += _vertex_maps(pf, 1)
        finally:
            for other in others:
                other.close()
        for a, b in zip(solo, interleaved):
            assert np.array_equal(a, b)

    def test_all_families_deterministic_through_prefetcher(self, medium_graph):
        from repro.sampling.zoo import FAMILIES, make_sampler

        for fam in FAMILIES:
            def collect():
                s = make_sampler(fam, medium_graph, budget=100)
                with _pool(s, depth=2, seed=8) as pf:
                    return _vertex_maps(pf, 3)

            for a, b in zip(collect(), collect()):
                assert np.array_equal(a, b)


class TestPrefetchingSubgraphPool:
    def test_pool_contract(self, sampler):
        assert PrefetchingSubgraphPool is SubgraphPool
        with _pool(sampler, depth=2, seed=3) as pool:
            sub = pool.get()
            assert isinstance(sub, SampledSubgraph) and sub.num_vertices > 0
            assert pool.stats.gets == 1

    def test_amortized_cost_matches_scheduler_pricing(self, sampler):
        """One sampler instance: the pricer charges a pool's subgraph its
        own uncontended metered cost, in flight or inline."""
        from repro.parallel.machine import MachineSpec
        from repro.sampling.cost import pool_fill_times, simulated_sampler_time

        machine = MachineSpec()
        for depth in (0, 1):
            with _pool(sampler, depth=depth, seed=9) as pool:
                sub = pool.get()
            (makespan,) = pool_fill_times(
                [sub.stats], machine, instances=pool.instances, p_intra=1
            )
            assert makespan / pool.instances == simulated_sampler_time(
                sub.stats, machine, p_intra=1, contention_factor=1.0
            )

    def test_validation(self, sampler):
        with pytest.raises(ValueError, match="workers"):
            _pool(sampler, depth=1, workers=0)

    def test_instances_bounded_by_depth(self, sampler):
        """At most depth submissions are in flight, so that many sampler
        instances is all the pool starts and all the model prices."""
        with _pool(sampler, depth=1, workers=4) as pool:
            assert pool.instances == 1
        assert _pool(sampler, depth=0, workers=4).instances == 1


class _FailsOnSubmission(GraphSampler):
    """Raises on one submission of a seed-0 pool, samples vertex 0 on the
    others. Stateless, since worker processes hold copies: it knows the
    submission by the first draw of the generator it is handed."""

    def __init__(self, graph, index: int) -> None:
        super().__init__(graph)
        entropy = np.random.SeedSequence(0, spawn_key=(index,)).generate_state(1)[0]
        self._marker = np.random.default_rng(entropy).integers(1 << 62)

    def _draw(self, rng):
        if rng.integers(1 << 62) == self._marker:
            raise KeyError("sampler blew up")
        return np.array([0]), {}, None


def _no_prefetch_threads() -> bool:
    return not any(
        t.name.startswith("subgraph-prefetch") and t.is_alive()
        for t in threading.enumerate()
    )


class TestWorkerFailure:
    """A sampler that raises inside a producer surfaces as itself in the
    consumer, does not shrink the in-flight window, and leaks nothing."""

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_thread_error_reaches_consumer_and_pool_continues(
        self, medium_graph, depth
    ):
        with _pool(_FailsOnSubmission(medium_graph, 2), depth=depth, seed=0) as pool:
            pool.get()
            pool.get()
            with pytest.raises(KeyError, match="sampler blew up"):
                pool.get()
            # The failed submission was replaced: the window is whole and
            # the next get is submission 3, not an empty-deque IndexError.
            assert len(pool._slots) == depth
            sub = pool.get()
            assert sub.num_vertices == 1
        assert _no_prefetch_threads()

    @pytest.mark.slow
    def test_process_error_reaches_consumer_and_workers_exit(self, medium_graph):
        with _pool(_FailsOnSubmission(medium_graph, 2), depth=2, workers=2, seed=0) as pool:
            pool.get()
            pool.get()
            with pytest.raises(KeyError, match="sampler blew up"):
                pool.get()
            sub = pool.get()
            assert sub.num_vertices == 1
            workers = list(pool._executor._processes.values())
            assert workers and all(w.is_alive() for w in workers)
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
        assert not multiprocessing.active_children()


class TestTrainerIntegration:
    def _config(self, **kw):
        kw.setdefault("hidden_dims", (16,))
        kw.setdefault("frontier_size", 16)
        kw.setdefault("budget", 80)
        kw.setdefault("epochs", 1)
        kw.setdefault("eval_every", 1)
        kw.setdefault("seed", 0)
        return TrainConfig(**kw)

    def test_prefetch_pool_selected(self, ppi_small):
        """One pool class whatever the depth; the config only sets it up."""
        with GraphSamplingTrainer(
            ppi_small, self._config(prefetch_depth=2, prefetch_workers=3)
        ) as trainer:
            assert type(trainer.pool) is SubgraphPool
            assert (trainer.pool.depth, trainer.pool.instances) == (2, 2)
        with GraphSamplingTrainer(ppi_small, self._config()) as trainer:
            assert type(trainer.pool) is SubgraphPool
            assert (trainer.pool.depth, trainer.pool.instances) == (0, 1)

    def test_training_with_prefetch_reports_stall_metrics(self, ppi_small):
        obs.reset()
        with obs.enabled():
            with GraphSamplingTrainer(
                ppi_small, self._config(prefetch_depth=2)
            ) as trainer:
                result = trainer.train()
            roots = list(obs.get_tracer().roots)
            snap = obs.metrics.snapshot()
        obs.reset()
        assert result.iterations > 0
        counters = snap["counters"]
        assert counters["pipeline.gets"] == result.iterations
        hists = snap["histograms"]
        assert (
            hists["pipeline.consumer_stall_seconds"]["count"]
            == result.iterations
        )
        spans = [
            sp
            for root in roots
            for sp in walk(root)
            if sp.name == "sampler.pool.get"
        ]
        assert len(spans) == result.iterations

    def _trained(self, dataset, **kw):
        with GraphSamplingTrainer(dataset, self._config(epochs=2, **kw)) as trainer:
            result = trainer.train()
            return result, trainer.model.state_dict(), trainer.pool.stats

    def _assert_same_run(self, a, b):
        (res_a, weights_a, _), (res_b, weights_b, _) = a, b
        assert res_a.iterations == res_b.iterations
        assert [e.train_loss for e in res_a.epochs] == [
            e.train_loss for e in res_b.epochs
        ]
        assert weights_a.keys() == weights_b.keys()
        for name, weight in weights_a.items():
            assert np.array_equal(weight, weights_b[name]), name

    def test_prefetch_run_converges_like_inline_run(self, ppi_small):
        """prefetch_depth is an execution knob: the inline and the
        threaded run of one seed train on the same subgraphs, to
        bit-identical losses and weights."""
        inline = self._trained(ppi_small)
        threaded = self._trained(ppi_small, prefetch_depth=2)
        self._assert_same_run(inline, threaded)
        assert inline[2] == PrefetchStats()  # all zero: nothing in flight
        assert threaded[2].gets == threaded[0].iterations

    @pytest.mark.slow
    def test_process_run_matches_inline_run(self, ppi_small):
        self._assert_same_run(
            self._trained(ppi_small),
            self._trained(ppi_small, prefetch_depth=2, prefetch_workers=2),
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self._config(prefetch_depth=-1)
        with pytest.raises(ValueError):
            self._config(prefetch_workers=0)
        with pytest.raises(ValueError):
            self._config(sampler_engine="warp")
