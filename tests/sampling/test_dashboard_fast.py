"""Statistical-equivalence suite for the fast Dashboard engine.

The fast engine must draw from the same pop distribution as the scalar
reference oracle and meter the same CostCounter quantities (within
tolerance — the two engines consume different RNG streams, so counts
match statistically, not bit-for-bit). Heavy many-subgraph tests are
marked ``slow`` so ``pytest -m "not slow"`` stays quick.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.graphs.datasets import make_dataset
from repro.sampling.dashboard import (
    ENGINES,
    INV,
    Dashboard,
    DashboardFrontierSampler,
)


@pytest.fixture(scope="module")
def amazon_small():
    """Amazon-profile dataset: the heavy-tailed graph the degree cap
    exists for (profile degree exponent ~2.05)."""
    return make_dataset("amazon", scale=0.002, seed=11)


def _make_sampler(graph, engine, **kw):
    kw.setdefault("frontier_size", 40)
    kw.setdefault("budget", 300)
    return DashboardFrontierSampler(graph, engine=engine, **kw)


class TestAddMany:
    def test_matches_sequential_adds(self):
        """add_many is layout- and meter-identical to a loop of add()."""
        vertices = np.array([7, 9, 7, 3, 12])
        counts = np.array([4, 1, 2, 6, 3])
        batched = Dashboard(100)
        batched.add_many(vertices, counts)
        scalar = Dashboard(100)
        for v, c in zip(vertices, counts):
            scalar.add(int(v), int(c))
        assert np.array_equal(batched.db_vertex, scalar.db_vertex)
        assert np.array_equal(batched.db_offset, scalar.db_offset)
        assert np.array_equal(batched.db_index, scalar.db_index)
        assert np.array_equal(batched.ia_start, scalar.ia_start)
        assert np.array_equal(batched.ia_alive, scalar.ia_alive)
        assert batched.used == scalar.used
        assert batched.num_added == scalar.num_added
        assert batched.alive_entries == scalar.alive_entries
        for field in (
            "mem_ops",
            "private_mem_ops",
            "vector_elements",
            "vector_chunks",
        ):
            assert getattr(batched.counter, field) == getattr(
                scalar.counter, field
            ), field

    def test_empty_batch_is_noop(self):
        db = Dashboard(10)
        db.add_many(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert db.used == 0 and db.num_added == 0

    def test_overflow_raises(self):
        db = Dashboard(5)
        with pytest.raises(RuntimeError, match="overflow"):
            db.add_many(np.array([1, 2]), np.array([3, 3]))

    def test_validation(self):
        db = Dashboard(10)
        with pytest.raises(ValueError):
            db.add_many(np.array([1]), np.array([0]))
        with pytest.raises(ValueError):
            db.add_many(np.array([1, 2]), np.array([1]))


class TestPopMany:
    def test_pops_are_distinct_and_invalidated(self, rng):
        db = Dashboard(200)
        db.add_many(np.arange(10), np.full(10, 4))
        popped = db.pop_many(rng, 6)
        assert 1 <= popped.shape[0] <= 6
        assert np.unique(popped).shape[0] == popped.shape[0]
        assert db.num_pops == popped.shape[0]
        assert db.alive_entries == 4 * (10 - popped.shape[0])
        for v in popped:
            assert v not in db.alive_vertices()

    def test_capped_at_alive_occupants(self, rng):
        db = Dashboard(100)
        db.add_many(np.arange(3), np.full(3, 5))
        popped = db.pop_many(rng, 50)
        assert popped.shape[0] == 3
        assert db.alive_entries == 0

    def test_empty_raises(self, rng):
        with pytest.raises(RuntimeError, match="empty"):
            Dashboard(10).pop_many(rng, 1)
        db = Dashboard(10)
        db.add(1, 2)
        with pytest.raises(ValueError):
            db.pop_many(rng, 0)

    def test_single_pop_degree_proportional(self):
        """pop_many(max_pops=1) realizes the same entry-weighted draw as
        the scalar pop: chi-square against the exact weights."""
        entries = np.array([9, 3, 1, 5, 2])
        trials = 4000
        counts = np.zeros(entries.size)
        db = Dashboard(60)
        db.add_many(np.arange(entries.size), entries)
        rng = np.random.default_rng(0)
        for _ in range(trials):
            (v,) = db.pop_many(rng, 1)
            counts[v] += 1
            db.add(int(v), int(entries[v]))  # restore stationary weights
            if db.free_entries() < entries.max():
                db.cleanup()
        expected = trials * entries / entries.sum()
        result = scipy_stats.chisquare(counts, expected)
        assert result.pvalue > 0.01, (counts, expected)

    def test_scalar_pop_degree_proportional(self):
        """Same chi-square for the buffered reference pop (satellite 2
        changed its RNG consumption; the distribution must not move)."""
        entries = np.array([9, 3, 1, 5, 2])
        trials = 4000
        counts = np.zeros(entries.size)
        db = Dashboard(60)
        db.add_many(np.arange(entries.size), entries)
        rng = np.random.default_rng(1)
        for _ in range(trials):
            v = db.pop(rng)
            counts[v] += 1
            db.add(v, int(entries[v]))
            if db.free_entries() < entries.max():
                db.cleanup()
        expected = trials * entries / entries.sum()
        result = scipy_stats.chisquare(counts, expected)
        assert result.pvalue > 0.01, (counts, expected)

    def test_round_respects_weights(self):
        """Across many rounds, heavier vertices appear in the round's
        pops proportionally more often (weighted without replacement)."""
        entries = np.array([12, 1, 1, 1, 1, 1, 1, 1])
        hits = np.zeros(entries.size)
        trials = 800
        rng = np.random.default_rng(3)
        for _ in range(trials):
            db = Dashboard(40)
            db.add_many(np.arange(entries.size), entries)
            popped = db.pop_many(rng, 2)
            hits[popped] += 1
        # Vertex 0 holds 12/19 of the weight; within 2 pops it should be
        # present in nearly every round (P ~ 1 - (7/19)(6/18) ~ 0.88).
        assert hits[0] / trials > 0.8


class TestProbeBufferMetering:
    class _CountingRng:
        """Wraps a Generator, counting uniform indices drawn."""

        def __init__(self, seed):
            self._rng = np.random.default_rng(seed)
            self.drawn = 0

        def integers(self, low, high, size):
            self.drawn += int(size)
            return self._rng.integers(low, high, size=size)

    def test_rand_ops_matches_actual_draws_scalar(self):
        rng = self._CountingRng(5)
        db = Dashboard(80)
        db.add_many(np.arange(8), np.full(8, 5))
        for _ in range(6):
            v = db.pop(rng)
            db.add(int(v), 5)
        assert db.counter.rand_ops == rng.drawn
        assert db.num_probes <= rng.drawn  # tail carried, not discarded

    def test_rand_ops_matches_actual_draws_batched(self):
        rng = self._CountingRng(6)
        db = Dashboard(200)
        db.add_many(np.arange(20), np.full(20, 5))
        db.pop_many(rng, 8)
        db.pop_many(rng, 8)
        assert db.counter.rand_ops == rng.drawn
        assert db.num_probes <= rng.drawn

    def test_tail_carried_across_cleanup(self, rng):
        """Cleanup keeps capacity, so buffered draws stay valid."""
        db = Dashboard(60)
        db.add_many(np.arange(6), np.full(6, 5))
        db.pop(rng)
        buffered = db._probe_buf.shape[0] - db._probe_pos
        db.cleanup()
        assert db._probe_buf.shape[0] - db._probe_pos == buffered

    def test_buffer_flushed_on_grow(self, rng):
        """Grow changes capacity: old uniform draws would be biased."""
        db = Dashboard(60)
        db.add_many(np.arange(6), np.full(6, 5))
        db.pop(rng)
        db.grow(120)
        assert db._probe_buf.shape[0] - db._probe_pos == 0


class TestEngineEquivalence:
    @pytest.mark.slow
    def test_mean_sampled_degree_matches(self, medium_graph):
        """Subgraph-level distribution: mean sampled-vertex degree of the
        two engines within 3 combined standard errors over seeds."""
        deg = medium_graph.degrees

        def series(engine, seeds):
            s = _make_sampler(medium_graph, engine)
            vals = []
            for seed in seeds:
                sub = s.sample(np.random.default_rng(seed))
                vals.append(float(deg[sub.vertex_map].mean()))
            return np.array(vals)

        a = series("reference", range(16))
        b = series("fast", range(200, 216))
        se = np.sqrt(a.var() / a.size + b.var() / b.size)
        assert abs(a.mean() - b.mean()) < 3 * se + 1e-9

    @pytest.mark.slow
    def test_popped_degree_chisquare(self, medium_graph):
        """Chi-square on the popped-vertex degree histogram, fast vs
        reference, pooled over many subgraphs."""
        deg = medium_graph.degrees
        edges = np.array([0, 4, 8, 12, 20, 40, np.inf])

        def histogram(engine, seeds):
            s = _make_sampler(medium_graph, engine)
            pops = []
            for seed in seeds:
                sub = s.sample(np.random.default_rng(seed))
                pops.append(deg[sub.vertex_map])
            return np.histogram(np.concatenate(pops), bins=edges)[0]

        ref = histogram("reference", range(20))
        fast = histogram("fast", range(300, 320))
        # Two-sample chi-square on the contingency table.
        result = scipy_stats.chi2_contingency(np.stack([ref, fast]))
        assert result.pvalue > 0.01, (ref, fast)

    @pytest.mark.slow
    def test_cost_counters_within_tolerance(self, medium_graph):
        """Metered totals agree across engines: equal non-random counts,
        statistically-close probe/cleanup counts."""

        def totals(engine, seeds):
            s = _make_sampler(medium_graph, engine)
            acc: dict[str, float] = {}
            for seed in seeds:
                st = s.sample(np.random.default_rng(seed)).stats
                for k, v in st.items():
                    acc[k] = acc.get(k, 0.0) + v
            return {k: v / len(list(seeds)) for k, v in acc.items()}

        ref = totals("reference", range(10))
        fast = totals("fast", range(400, 410))
        assert ref["pops"] == fast["pops"]
        # Probes: the fast engine treats within-round duplicate hits as
        # misses, paying a slightly higher probe count.
        assert fast["probes"] == pytest.approx(ref["probes"], rel=0.35)
        assert fast["cleanups"] == pytest.approx(ref["cleanups"], abs=2.5)
        # rand_ops ~ probes + pops on both engines (draws are buffered;
        # over-draw is bounded by one block per refill).
        for t in (ref, fast):
            assert t["rand_ops"] >= t["probes"]
        assert fast["rand_ops"] == pytest.approx(ref["rand_ops"], rel=0.35)
        assert fast["mem_ops"] == pytest.approx(ref["mem_ops"], rel=0.25)
        assert fast["private_mem_ops"] == pytest.approx(
            ref["private_mem_ops"], rel=0.05
        )
        assert fast["vector_elements"] == pytest.approx(
            ref["vector_elements"], rel=0.15
        )
        assert fast["vector_chunks"] == pytest.approx(
            ref["vector_chunks"], rel=0.15
        )

    def test_determinism_fast(self, medium_graph):
        s = _make_sampler(medium_graph, "fast")
        a = s.sample(np.random.default_rng(9))
        b = s.sample(np.random.default_rng(9))
        assert np.array_equal(a.vertex_map, b.vertex_map)
        assert a.stats == b.stats

    def test_small_frontier_pops_one_per_round(self, medium_graph, monkeypatch):
        # A round pops max(1, m // 4) vertices: one at a time below m = 8.
        sizes = []
        original = Dashboard.pop_many

        def counting(self, rng, max_pops):
            sizes.append(max_pops)
            return original(self, rng, max_pops)

        monkeypatch.setattr(Dashboard, "pop_many", counting)
        s = _make_sampler(medium_graph, "fast", frontier_size=4)
        sub = s.sample(np.random.default_rng(2))
        assert sub.stats["pops"] == 296.0
        assert sizes == [1] * 296

    def test_engine_validation(self, medium_graph):
        with pytest.raises(ValueError, match="engine"):
            _make_sampler(medium_graph, "turbo")


class TestDegreeCapOnSkewedGraph:
    @pytest.mark.slow
    def test_cap_behaviour_preserved_amazon(self, amazon_small):
        """On the Amazon-profile heavy-tail graph, both engines respect
        max_entries_per_vertex: hub pop rates match and no board block
        ever exceeds the cap."""
        g = amazon_small.graph
        cap = 30
        hubs = np.argsort(g.degrees)[-5:]

        def hub_rate(engine, seeds):
            s = DashboardFrontierSampler(
                g,
                frontier_size=30,
                budget=200,
                max_entries_per_vertex=cap,
                engine=engine,
            )
            hits = 0
            for seed in seeds:
                sub = s.sample(np.random.default_rng(seed))
                hits += int(np.isin(hubs, sub.vertex_map).sum())
            return hits / len(list(seeds))

        ref = hub_rate("reference", range(15))
        fast = hub_rate("fast", range(500, 515))
        assert fast == pytest.approx(ref, abs=1.5)

    def test_entry_counts_capped(self, amazon_small):
        g = amazon_small.graph
        s = DashboardFrontierSampler(
            g,
            frontier_size=20,
            budget=60,
            max_entries_per_vertex=30,
            engine="fast",
        )
        counts = s._entry_counts(np.arange(g.num_vertices))
        assert counts.max() <= 30
        expected = np.minimum(g.degrees, 30)
        assert np.array_equal(counts, expected)

    def test_board_blocks_never_exceed_cap(self, amazon_small):
        """Instrument a fast-engine run: every add_many batch is capped."""
        g = amazon_small.graph
        s = DashboardFrontierSampler(
            g,
            frontier_size=20,
            budget=120,
            max_entries_per_vertex=30,
            engine="fast",
        )
        seen = []
        original = Dashboard.add_many

        def spy(self, vertices, counts):
            seen.append(np.max(counts) if np.asarray(counts).size else 0)
            return original(self, vertices, counts)

        Dashboard.add_many = spy
        try:
            s.sample(np.random.default_rng(4))
        finally:
            Dashboard.add_many = original
        assert seen and max(seen) <= 30


class TestInvariantsAfterBatchedOps:
    def test_alive_blocks_well_formed_after_rounds(self, rng):
        """After interleaved pop_many/add_many/cleanup, every alive IA
        entry still points at a (-deg, 1, .., deg-1) block."""
        g_entries = np.array([3, 5, 2, 7, 1, 4, 6, 2])
        db = Dashboard(80)
        db.add_many(np.arange(g_entries.size), g_entries)
        for step in range(6):
            popped = db.pop_many(rng, 3)
            refill = np.array([int(v) for v in popped])
            counts = g_entries[refill % g_entries.size]
            if counts.sum() > db.free_entries():
                db.cleanup()
            db.add_many(refill + 100 * (step + 1), counts)
            ks = np.flatnonzero(db.ia_alive[: db.num_added])
            for k in ks:
                start = db.ia_start[k]
                deg = -int(db.db_offset[start])
                assert deg >= 1
                assert np.all(db.db_vertex[start : start + deg] != INV)
                assert np.array_equal(
                    db.db_offset[start + 1 : start + deg], np.arange(1, deg)
                )


def test_engines_constant():
    assert ENGINES == ("fast", "reference")
