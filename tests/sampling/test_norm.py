"""GraphSAINT normalization: closed forms, unbiasedness, empirical mode.

The module's contract is statistical — ``lambda_v = 1/(n p_v)`` weights
must make the subgraph loss an *unbiased* estimator of the full-graph
mean — so the suite checks (a) closed forms against hand-computed values
on tiny graphs, (b) Monte-Carlo unbiasedness of the weighted-sum
estimator under the real samplers, and (c) empirical coefficients
converging to the closed forms where both exist.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import edges_to_csr
from repro.sampling.edge import DegreeWeightedEdgeSampler
from repro.sampling.edge_indp import IndependentEdgeSampler
from repro.sampling.norm import (
    NormCoefficients,
    edge_draw_coefficients,
    edge_sampling_weights,
    empirical_coefficients,
    independent_edge_coefficients,
    loss_weights_from_probs,
)
from repro.sampling.rw import RandomWalkBatchSampler


@pytest.fixture
def p3_graph():
    """P3 path 0-1-2: degrees (1, 2, 1), two edges with w = 1/d_u + 1/d_v."""
    return edges_to_csr(np.array([[0, 1], [1, 2]]), 3)


class TestEdgeSamplingWeights:
    def test_p3_weights(self, p3_graph):
        src, dst, w = edge_sampling_weights(p3_graph)
        # Undirected edges in CSR order: (0,1), (1,2); both w = 1 + 1/2.
        assert np.array_equal(src, [0, 1])
        assert np.array_equal(dst, [1, 2])
        assert np.allclose(w, [1.5, 1.5])

    def test_rejects_edgeless(self):
        graph = edges_to_csr(np.empty((0, 2), dtype=int), 3)
        with pytest.raises(ValueError):
            edge_sampling_weights(graph)

class TestLossWeights:
    def test_formula(self):
        p = np.array([0.5, 0.25, 1.0, 0.0])
        lam = loss_weights_from_probs(p)
        n = 4
        assert lam[0] == pytest.approx(1 / (n * 0.5))
        assert lam[1] == pytest.approx(1 / (n * 0.25))
        assert lam[2] == pytest.approx(1 / n)
        assert lam[3] == pytest.approx(1 / n)  # never-sampled -> neutral

    def test_floor_bounds_weights(self):
        lam = loss_weights_from_probs(np.array([0.001, 0.5]), floor=0.1)
        assert lam[0] == pytest.approx(1 / (2 * 0.1))

    def test_validation(self):
        with pytest.raises(ValueError):
            loss_weights_from_probs(np.array([1.5]))
        with pytest.raises(ValueError):
            loss_weights_from_probs(np.array([-0.1]))
        with pytest.raises(ValueError):
            loss_weights_from_probs(np.array([0.5]), floor=0.0)


class TestIndependentEdgeClosedForm:
    def test_p3_hand_computed(self, p3_graph):
        """budget=1 on P3: q = (1/2, 1/2), p_e = 1/2 each; p_1 (center)
        = 1 - (1/2)^2 = 3/4, leaves = 1/2."""
        c = independent_edge_coefficients(p3_graph, 1)
        assert np.allclose(c.node_prob, [0.5, 0.75, 0.5])
        assert np.allclose(c.loss_weight, 1.0 / (3 * c.node_prob))
        assert c.method == "closed_form"
        # Expected total batch weight is exactly 1 for exact probabilities.
        assert c.expected_batch_weight == pytest.approx(1.0)

    def test_saturated_budget(self, p3_graph):
        """A budget >= total weight clips every p_e at 1: the subgraph is
        deterministic, every p_v = 1, and weights are uniform 1/n."""
        c = independent_edge_coefficients(p3_graph, 10)
        assert np.allclose(c.node_prob, 1.0)
        assert np.allclose(c.loss_weight, 1.0 / 3)

    def test_validation(self, p3_graph):
        with pytest.raises(ValueError):
            independent_edge_coefficients(p3_graph, 0)

    @pytest.mark.slow
    def test_monte_carlo_unbiasedness(self, clique_ring):
        """E[sum over subgraph of lambda_v x_v] == mean(x) for arbitrary
        per-vertex values x — the whole point of the weights."""
        n = clique_ring.num_vertices
        budget = 6
        src, dst, w = edge_sampling_weights(clique_ring)
        edge_prob = np.minimum(1.0, budget * w / w.sum())
        c = independent_edge_coefficients(clique_ring, budget)
        x = np.random.default_rng(0).random(n) + 0.5
        target = x.mean()
        # Use raw Bernoulli draws (no non-emptiness rejection) so the
        # estimator matches the closed form exactly.
        rng = np.random.default_rng(42)
        est = []
        for _ in range(4000):
            keep = rng.random(edge_prob.size) < edge_prob
            verts = np.unique(np.concatenate((src[keep], dst[keep])))
            est.append((c.loss_weight[verts] * x[verts]).sum())
        est = np.asarray(est)
        sem = est.std() / np.sqrt(est.size)
        assert abs(est.mean() - target) < 4 * sem + 1e-12


class TestEdgeDrawClosedForm:
    def test_p3_hand_computed(self, p3_graph):
        """One draw on P3: q = (1/2, 1/2). Center vertex is in every
        drawn edge -> p_1 = 1; leaves p = 1/2."""
        c = edge_draw_coefficients(p3_graph, 1)
        assert np.allclose(c.node_prob, [0.5, 1.0, 0.5])
        assert c.expected_batch_weight == pytest.approx(1.0)

    def test_many_draws_saturate(self, p3_graph):
        c = edge_draw_coefficients(p3_graph, 200)
        assert np.allclose(c.node_prob, 1.0, atol=1e-12)

    def test_validation(self, p3_graph):
        with pytest.raises(ValueError):
            edge_draw_coefficients(p3_graph, 0)

    @pytest.mark.slow
    def test_node_prob_matches_sampler(self, clique_ring):
        """Closed-form p_v vs empirical inclusion frequency of the real
        with-replacement sampler, within 4-sigma binomial error."""
        draws = 5
        s = DegreeWeightedEdgeSampler(clique_ring, num_draws=draws)
        c = edge_draw_coefficients(clique_ring, draws)
        k = 2000
        counts = np.zeros(clique_ring.num_vertices)
        for seed in range(k):
            sub = s.sample(np.random.default_rng(seed))
            counts[sub.vertex_map] += 1
        p = c.node_prob
        sigma = np.sqrt(np.maximum(p * (1 - p), 1e-12) / k)
        assert np.all(np.abs(counts / k - p) < 4 * sigma + 1e-9)


class TestEmpiricalCoefficients:
    def test_deterministic(self, clique_ring):
        s = RandomWalkBatchSampler(clique_ring, num_roots=4, walk_depth=2)
        a = empirical_coefficients(s, num_subgraphs=6, seed=3)
        b = empirical_coefficients(s, num_subgraphs=6, seed=3)
        assert np.array_equal(a.node_prob, b.node_prob)
        assert a.method == "empirical"

    def test_batch_weight_is_seen_fraction(self, clique_ring):
        """With the 1/K floor, p_v * lambda_v = 1/n for every seen vertex,
        so the expected batch weight equals the seen fraction."""
        s = RandomWalkBatchSampler(clique_ring, num_roots=4, walk_depth=2)
        c = empirical_coefficients(s, num_subgraphs=8, seed=1)
        seen = (c.node_prob > 0).mean()
        assert c.expected_batch_weight == pytest.approx(seen)

    def test_validation(self, clique_ring):
        s = RandomWalkBatchSampler(clique_ring, num_roots=2, walk_depth=2)
        with pytest.raises(ValueError):
            empirical_coefficients(s, num_subgraphs=0)

    @pytest.mark.slow
    def test_converges_to_closed_form(self, clique_ring):
        """Empirical coefficients of the independent-edge sampler converge
        to its closed form (the cross-validation of both code paths)."""
        budget = 8
        s = IndependentEdgeSampler(clique_ring, edge_budget=budget)
        exact = independent_edge_coefficients(clique_ring, budget)
        emp = empirical_coefficients(s, num_subgraphs=3000, seed=7)
        p = exact.node_prob
        sigma = np.sqrt(np.maximum(p * (1 - p), 1e-12) / 3000)
        assert np.all(np.abs(emp.node_prob - p) < 4 * sigma + 5e-3)


class TestNormCoefficientsContainer:
    def test_frozen(self, p3_graph):
        c = independent_edge_coefficients(p3_graph, 1)
        assert isinstance(c, NormCoefficients)
        with pytest.raises(AttributeError):
            c.method = "other"
