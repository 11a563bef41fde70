"""Sampler-zoo suite: inclusion probabilities, engine equivalence, factory.

Each GraphSAINT-family sampler (rw, edge, edge-indp) is checked three
ways, mirroring ``test_dashboard_fast.py``:

* **Inclusion probabilities** — empirical per-edge / per-node frequencies
  against closed-form values (chi-square / binomial tolerance), the
  statistical ground truth the normalization module builds on.
* **Engine equivalence** — the ``fast`` engine must draw from the same
  subgraph distribution as the scalar ``reference`` oracle (separate
  seed ranges; chi-square on vertex-inclusion histograms) and meter
  *identical* CostCounter totals (both engines price the algorithm's
  parallel structure).
* **Determinism + validation** — same rng seed, same subgraph; bad
  parameters raise.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.graphs import edges_to_csr, ring_of_cliques
from repro.sampling.dashboard import ENGINES, DashboardFrontierSampler
from repro.sampling.edge import DegreeWeightedEdgeSampler
from repro.sampling.edge_indp import IndependentEdgeSampler
from repro.sampling.norm import edge_sampling_weights
from repro.sampling.rw import RandomWalkBatchSampler
from repro.sampling.zoo import FAMILIES, make_sampler, norm_coefficients

_METER_KEYS = (
    "rand_ops",
    "mem_ops",
    "private_mem_ops",
    "vector_elements",
    "vector_chunks",
)


def _cycle_graph(n: int):
    """C_n: 2-regular, vertex-transitive — closed-form walk symmetry."""
    edges = np.array([[i, (i + 1) % n] for i in range(n)])
    return edges_to_csr(edges, n)


class TestRandomWalkSampler:
    def test_budget(self, clique_ring):
        s = RandomWalkBatchSampler(clique_ring, num_roots=5, walk_depth=3)
        assert s.budget == 20

    def test_walk_steps_follow_edges(self, clique_ring, rng):
        """Every consecutive visit pair along a walk is a real edge —
        checked via the reference oracle's per-walk trajectories being
        contained in the induced subgraph."""
        s = RandomWalkBatchSampler(
            clique_ring, num_roots=4, walk_depth=5, engine="reference"
        )
        sub = s.sample(rng)
        # The induced subgraph keeps every visited vertex.
        assert sub.num_vertices <= s.budget
        assert sub.stats["walk_steps"] == 4 * 5

    def test_validation(self, clique_ring, star_graph):
        with pytest.raises(ValueError):
            RandomWalkBatchSampler(clique_ring, num_roots=0, walk_depth=2)
        with pytest.raises(ValueError):
            RandomWalkBatchSampler(clique_ring, num_roots=2, walk_depth=0)
        with pytest.raises(ValueError):
            RandomWalkBatchSampler(
                clique_ring, num_roots=2, walk_depth=2, engine="turbo"
            )
        # Isolated vertex -> walks cannot proceed.
        isolated = edges_to_csr(np.array([[0, 1]]), 3)
        with pytest.raises(ValueError):
            RandomWalkBatchSampler(isolated, num_roots=2, walk_depth=2)

    @pytest.mark.slow
    def test_visit_uniformity_on_cycle(self):
        """On a vertex-transitive graph every vertex is visited equally
        often: chi-square on visit counts over many subgraphs."""
        graph = _cycle_graph(24)
        s = RandomWalkBatchSampler(graph, num_roots=6, walk_depth=4)
        counts = np.zeros(24)
        for seed in range(400):
            sub = s.sample(np.random.default_rng(seed))
            counts[sub.vertex_map] += 1
        expected = np.full(24, counts.sum() / 24)
        assert scipy_stats.chisquare(counts, expected).pvalue > 0.01


class TestEdgeSampler:
    def test_budget_and_weights(self, clique_ring):
        s = DegreeWeightedEdgeSampler(clique_ring, num_draws=10)
        assert s.budget == 20
        src, dst, w = edge_sampling_weights(clique_ring)
        deg = clique_ring.degrees
        assert np.allclose(w, 1.0 / deg[src] + 1.0 / deg[dst])

    def test_validation(self, clique_ring):
        with pytest.raises(ValueError):
            DegreeWeightedEdgeSampler(clique_ring, num_draws=0)
        with pytest.raises(ValueError):
            DegreeWeightedEdgeSampler(clique_ring, num_draws=3, engine="x")

    @pytest.mark.slow
    def test_draw_frequencies_match_weights(self, star_graph):
        """Empirical draw frequencies converge to w_e / sum(w): the alias
        table samples the degree-weighted distribution exactly."""
        s = DegreeWeightedEdgeSampler(star_graph, num_draws=40)
        _, _, w = edge_sampling_weights(star_graph)
        q = w / w.sum()
        rng = np.random.default_rng(5)
        counts = np.zeros(w.size)
        rounds = 200
        for _ in range(rounds):
            picks = s._alias.sample(rng, s.num_draws)
            counts += np.bincount(picks, minlength=w.size)
        total = rounds * s.num_draws
        assert scipy_stats.chisquare(counts, q * total).pvalue > 0.01


class TestIndependentEdgeSampler:
    def test_edge_prob_closed_form(self, clique_ring):
        s = IndependentEdgeSampler(clique_ring, edge_budget=12)
        _, _, w = edge_sampling_weights(clique_ring)
        assert np.allclose(s.edge_prob, np.minimum(1.0, 12 * w / w.sum()))
        assert s.budget == 12

    def test_expected_edges_near_budget(self, medium_graph):
        s = IndependentEdgeSampler(medium_graph, edge_budget=200)
        # sum(p_e) <= budget with equality when no edge clips at 1.
        assert s.edge_prob.sum() <= 200 + 1e-9

    def test_validation(self, clique_ring):
        with pytest.raises(ValueError):
            IndependentEdgeSampler(clique_ring, edge_budget=0)
        with pytest.raises(ValueError):
            IndependentEdgeSampler(clique_ring, edge_budget=5, engine="x")

    @pytest.mark.slow
    def test_inclusion_probabilities_match_closed_form(self, clique_ring):
        """Per-node empirical inclusion frequencies vs the closed form
        p_v = 1 - prod(1 - p_e) over incident edges, within binomial
        error bars (4 sigma) at every vertex."""
        from repro.sampling.norm import independent_edge_coefficients

        budget = 8
        s = IndependentEdgeSampler(clique_ring, edge_budget=budget)
        coeffs = independent_edge_coefficients(clique_ring, budget)
        k = 1500
        counts = np.zeros(clique_ring.num_vertices)
        for seed in range(k):
            sub = s.sample(np.random.default_rng(seed))
            counts[sub.vertex_map] += 1
        # Conditioning on non-emptiness (the redraw loop) is negligible
        # at this budget; compare unconditioned closed form directly.
        p = coeffs.node_prob
        sigma = np.sqrt(np.maximum(p * (1 - p), 1e-12) / k)
        assert np.all(np.abs(counts / k - p) < 4 * sigma + 1e-9)


class TestEngineEquivalence:
    """fast and reference engines: identical meters, same distribution."""

    def _pair(self, graph, family):
        return {
            engine: make_sampler(family, graph, budget=60, engine=engine)
            for engine in ENGINES
        }

    @pytest.mark.parametrize("family", ["rw", "edge", "edge-indp"])
    def test_meters_identical(self, medium_graph, family):
        """Unlike the dashboard (tolerance-based), the zoo samplers meter
        bit-identical CostCounter totals across engines by construction."""
        pair = self._pair(medium_graph, family)
        subs = {
            engine: sampler.sample(np.random.default_rng(3))
            for engine, sampler in pair.items()
        }
        for key in _METER_KEYS:
            assert (
                subs["fast"].stats[key] == subs["reference"].stats[key]
            ), key
        assert subs["fast"].stats["pops"] == 0.0
        assert subs["fast"].stats["probes"] == 0.0

    @pytest.mark.parametrize("family", ["rw", "edge", "edge-indp"])
    def test_determinism(self, medium_graph, family):
        """Same seed, same engine -> identical subgraph and stats."""
        for engine in ENGINES:
            s = make_sampler(family, medium_graph, budget=60, engine=engine)
            a = s.sample(np.random.default_rng(11))
            b = s.sample(np.random.default_rng(11))
            assert np.array_equal(a.vertex_map, b.vertex_map)
            assert a.stats == b.stats

    @pytest.mark.slow
    @pytest.mark.parametrize("family", ["rw", "edge", "edge-indp"])
    def test_inclusion_distribution_chisquare(self, medium_graph, family):
        """Vertex-inclusion histograms from disjoint seed ranges of the
        two engines are statistically indistinguishable (chi-square
        two-sample test on the most-included vertices)."""
        n = medium_graph.num_vertices
        counts = {}
        for engine, seeds in (
            ("reference", range(120)),
            ("fast", range(500, 620)),
        ):
            s = make_sampler(family, medium_graph, budget=120, engine=engine)
            c = np.zeros(n)
            for seed in seeds:
                sub = s.sample(np.random.default_rng(seed))
                c[sub.vertex_map] += 1
            counts[engine] = c
        both = counts["reference"] + counts["fast"]
        top = np.argsort(both)[-60:]  # well-populated cells only
        table = np.stack([counts["reference"][top], counts["fast"][top]])
        assert scipy_stats.chi2_contingency(table).pvalue > 0.01


class TestZooFactory:
    def test_families_constant(self):
        assert FAMILIES == ("dashboard", "rw", "edge", "edge-indp")

    def test_every_family_constructs_and_samples(self, medium_graph, rng):
        for family in FAMILIES:
            s = make_sampler(family, medium_graph, budget=100)
            sub = s.sample(rng)
            assert sub.num_vertices > 0
            # Every zoo sampler reports the full metered-stats contract
            # the prefetch pool's pricing path requires.
            for key in _METER_KEYS + ("pops", "probes"):
                assert key in sub.stats, key

    def test_dashboard_family_matches_direct_construction(self, medium_graph):
        """The factory's dashboard path builds exactly the sampler the
        trainer always built (behavior-preserving default)."""
        via_zoo = make_sampler(
            "dashboard", medium_graph, budget=100, frontier_size=20
        )
        direct = DashboardFrontierSampler(
            medium_graph, frontier_size=20, budget=100
        )
        a = via_zoo.sample(np.random.default_rng(9))
        b = direct.sample(np.random.default_rng(9))
        assert np.array_equal(a.vertex_map, b.vertex_map)
        assert a.stats == b.stats

    def test_budget_mapping(self, medium_graph):
        rw = make_sampler("rw", medium_graph, budget=100, walk_depth=4)
        assert rw.num_roots == 20  # 100 // (4 + 1)
        edge = make_sampler("edge", medium_graph, budget=100)
        assert edge.num_draws == 50
        indp = make_sampler("edge-indp", medium_graph, budget=100)
        assert indp.edge_budget == 50

    def test_unknown_family(self, medium_graph):
        with pytest.raises(ValueError):
            make_sampler("bfs", medium_graph, budget=50)

    def test_norm_coefficients_dispatch(self, medium_graph):
        """Closed forms for the edge families, empirical otherwise."""
        for family, method in (
            ("dashboard", "empirical"),
            ("rw", "empirical"),
            ("edge", "closed_form"),
            ("edge-indp", "closed_form"),
        ):
            s = make_sampler(family, medium_graph, budget=80)
            c = norm_coefficients(s, num_subgraphs=4, seed=0)
            assert c.method == method
            assert c.node_prob.shape == (medium_graph.num_vertices,)
