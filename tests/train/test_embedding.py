"""Tests for embedding extraction and retrieval utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import accounting
from repro.nn.network import GCN
from repro.serving.index import l2_normalize_rows
from repro.train.config import TrainConfig
from repro.train.embedding import (
    compute_embeddings,
    cosine_nearest_neighbors,
    embedding_report,
    label_homogeneity,
)
from repro.train.trainer import GraphSamplingTrainer


class TestNormalize:
    def test_unit_rows(self, rng):
        e = rng.standard_normal((10, 4))
        n = l2_normalize_rows(e)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0)

    def test_zero_rows_stay_zero(self):
        e = np.zeros((3, 4))
        assert np.all(l2_normalize_rows(e) == 0)


class TestNearestNeighbors:
    def test_excludes_self(self, rng):
        e = rng.standard_normal((20, 6))
        q = np.arange(5)
        idx, sims = cosine_nearest_neighbors(e, q, k=3)
        assert idx.shape == (5, 3)
        for i, row in zip(q, idx):
            assert i not in row

    def test_finds_duplicates(self, rng):
        e = rng.standard_normal((10, 4))
        e[7] = e[2]  # exact duplicate
        idx, sims = cosine_nearest_neighbors(e, np.array([2]), k=1)
        assert idx[0, 0] == 7
        assert sims[0, 0] == pytest.approx(1.0)

    def test_sorted_by_similarity(self, rng):
        e = rng.standard_normal((30, 5))
        idx, sims = cosine_nearest_neighbors(e, np.array([0]), k=5)
        assert np.all(np.diff(sims[0]) <= 1e-12)

    def test_k_validation(self, rng):
        with pytest.raises(ValueError):
            cosine_nearest_neighbors(rng.standard_normal((5, 2)), np.array([0]), k=0)

    def test_k_clamped_to_available_neighbors(self, rng):
        # k >= n clamps to n-1 (self excluded) instead of erroring.
        e = rng.standard_normal((6, 3))
        idx, sims = cosine_nearest_neighbors(e, np.array([0, 3]), k=100)
        assert idx.shape == (2, 5)
        assert sims.shape == (2, 5)
        for i, row in zip((0, 3), idx):
            assert i not in row
            assert set(row) == set(range(6)) - {i}

    def test_zero_norm_rows_survive(self, rng):
        # Zero rows normalize to zero (similarity 0 to everything) and
        # must neither NaN out nor dominate the ranking.
        e = rng.standard_normal((12, 4))
        e[3] = 0.0
        e[8] = 0.0
        idx, sims = cosine_nearest_neighbors(e, np.arange(12), k=4)
        assert np.all(np.isfinite(sims))
        # A zero query is equidistant from everything: all sims zero.
        assert np.allclose(sims[3], 0.0)
        # For non-zero queries, zero rows never beat a positive match.
        best = sims[:, 0]
        assert np.all(best[np.arange(12) != 3] >= 0.0)

    def test_chunking_is_bit_identical(self, rng):
        # Regression for the memory-blowup fix: chunked scans must return
        # exactly the same indices AND similarities as the one-shot scan.
        e = rng.standard_normal((257, 9))
        q = np.arange(257)
        ref_idx, ref_sims = cosine_nearest_neighbors(e, q, k=7, chunk_size=None)
        for cs in (2, 16, 100, 256, 258):
            idx, sims = cosine_nearest_neighbors(e, q, k=7, chunk_size=cs)
            assert np.array_equal(ref_idx, idx), cs
            assert np.array_equal(ref_sims, sims), cs


class TestHomogeneity:
    def test_perfectly_clustered(self):
        # Two tight clusters with matching labels -> homogeneity 1.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20, 3)) * 0.01 + np.array([10.0, 0, 0])
        b = rng.standard_normal((20, 3)) * 0.01 + np.array([-10.0, 0, 0])
        emb = np.vstack([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        assert label_homogeneity(emb, labels, k=5, sample=None) == 1.0

    def test_random_embeddings_near_base_rate(self):
        rng = np.random.default_rng(1)
        emb = rng.standard_normal((300, 8))
        labels = rng.integers(0, 3, size=300)
        h = label_homogeneity(emb, labels, k=10, sample=100, rng=rng)
        assert 0.15 <= h <= 0.55  # ~1/3 expected

    def test_multilabel_variant(self, rng):
        emb = rng.standard_normal((50, 6))
        labels = (rng.random((50, 8)) < 0.3).astype(np.float64)
        h = label_homogeneity(emb, labels, k=5, sample=None)
        assert 0.0 <= h <= 1.0

    def test_multilabel_jaccard_exact(self):
        # Two tight clusters; cluster A's label set {0,1} vs B's {2}.
        # Within a cluster Jaccard is 1.0 (>= 0.5 -> counted); labels
        # across clusters share nothing, so homogeneity is exactly 1.0
        # when neighbors stay in-cluster and 0.0 when they do not.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 3)) * 0.01 + np.array([5.0, 0, 0])
        b = rng.standard_normal((10, 3)) * 0.01 + np.array([-5.0, 0, 0])
        emb = np.vstack([a, b])
        labels = np.zeros((20, 3))
        labels[:10, [0, 1]] = 1.0
        labels[10:, 2] = 1.0
        assert label_homogeneity(emb, labels, k=3, sample=None) == 1.0
        # Interleave so every vertex's nearest neighbors have disjoint
        # label sets (Jaccard 0 < 0.5).
        flip = np.tile([0.0, 1.0], 10)
        labels_bad = np.zeros((20, 3))
        labels_bad[flip == 0, 0] = 1.0
        labels_bad[flip == 1, 2] = 1.0
        mixed = label_homogeneity(emb, labels_bad, k=3, sample=None)
        assert 0.0 <= mixed < 1.0

    def test_sampled_queries_deterministic(self):
        rng = np.random.default_rng(5)
        emb = rng.standard_normal((200, 6))
        labels = rng.integers(0, 4, size=200)
        h1 = label_homogeneity(
            emb, labels, k=5, sample=64, rng=np.random.default_rng(9)
        )
        h2 = label_homogeneity(
            emb, labels, k=5, sample=64, rng=np.random.default_rng(9)
        )
        assert h1 == h2
        # Default rng (None) is seeded, so repeated calls agree too.
        assert label_homogeneity(emb, labels, k=5, sample=64) == (
            label_homogeneity(emb, labels, k=5, sample=64)
        )


class TestReport:
    def test_trained_model_beats_shuffled(self, reddit_small):
        trainer = GraphSamplingTrainer(
            reddit_small,
            TrainConfig(
                hidden_dims=(32, 32), frontier_size=30, budget=190, lr=0.005,
                epochs=6, eval_every=6, seed=0,
            ),
        )
        trainer.train()
        report = embedding_report(trainer.model, reddit_small, k=10)
        assert report["lift"] > 1.5
        assert report["label_homogeneity@k"] > report["shuffled_base_rate"]

    def test_embedding_shape(self, reddit_small):
        model = GCN(reddit_small.attribute_dim, [8, 4], reddit_small.num_classes, seed=0)
        emb = compute_embeddings(model, reddit_small)
        assert emb.shape == (reddit_small.num_vertices, 8)  # concat doubles 4

    def test_fast_policy_embeds_in_the_model_dtype(self, reddit_small):
        # Embed and evaluate agree on layer 0's precision: both read the
        # float32 entry of the shared input, no float64 kernel runs.
        cfg = TrainConfig(
            hidden_dims=(8, 8), frontier_size=20, budget=120, dtype_policy="fast"
        )
        with GraphSamplingTrainer(reddit_small, cfg) as trainer:
            model = trainer.model
            before = accounting.per_class_snapshot()
            emb = compute_embeddings(model, reddit_small)
            ran = [
                key
                for key, bucket in accounting.per_class_snapshot().items()
                if bucket != before.get(key)
            ]
            assert ran and not [key for key in ran if "float64" in key]
            assert emb.dtype == np.float32
            logits = model.head.forward(emb, train=False)
            assert np.array_equal(trainer.evaluator.full_logits(model), logits)


@pytest.mark.parametrize("dtype_policy", ["reference", "fast"])
def test_inference_results_are_owned_by_the_caller(reddit_small, dtype_policy):
    # An embedding or a logits matrix handed out is the caller's array: a
    # later inference call or training step must not write into it.
    cfg = TrainConfig(
        hidden_dims=(8, 8), frontier_size=20, budget=120, epochs=1,
        dtype_policy=dtype_policy,
    )
    with GraphSamplingTrainer(reddit_small, cfg) as trainer:
        trainer.train()
        model = trainer.model
        held = {
            "embeddings": lambda: compute_embeddings(model, reddit_small),
            "logits": lambda: trainer.evaluator.full_logits(model),
        }
        first = {name: call() for name, call in held.items()}
        for name, call in held.items():
            assert not np.shares_memory(call(), first[name]), name
        copies = {name: result.copy() for name, result in first.items()}
        trainer.train()
        for name, result in first.items():
            assert np.array_equal(result, copies[name]), name
