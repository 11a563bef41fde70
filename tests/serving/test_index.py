"""Tests for the serving indexes: exactness, recall, chunk invariance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.cluster import ShardedIndex
from repro.serving.index import (
    BruteForceIndex,
    ClusterIndex,
    build_index,
    l2_normalize_rows,
    recall_at_k,
)


def clustered_embeddings(n=1200, dim=16, clusters=12, spread=0.15, seed=0):
    rng = np.random.default_rng(seed)
    centers = l2_normalize_rows(rng.standard_normal((clusters, dim)))
    which = rng.integers(0, clusters, size=n)
    return centers[which] + spread * rng.standard_normal((n, dim))


class TestBruteForce:
    def test_matches_manual_oracle(self, rng):
        e = rng.standard_normal((60, 8))
        index = BruteForceIndex(e)
        q = np.arange(10)
        idx, sims = index.search_ids(q, 5)
        normed = l2_normalize_rows(e)
        full = normed[q] @ normed.T
        full[np.arange(10), q] = -np.inf
        for row in range(10):
            expect = np.argsort(-full[row])[:5]
            assert set(idx[row]) == set(expect)
            assert np.all(np.diff(sims[row]) <= 1e-12)

    def test_chunking_is_bit_identical(self, rng):
        e = rng.standard_normal((500, 12))
        q = np.arange(500)
        ref_idx, ref_sims = BruteForceIndex(e, chunk_size=None).search_ids(q, 8)
        for cs in (2, 33, 100, 499, 501):
            idx, sims = BruteForceIndex(e, chunk_size=cs).search_ids(q, 8)
            assert np.array_equal(ref_idx, idx), cs
            assert np.array_equal(ref_sims, sims), cs

    def test_chunking_bounds_the_block(self):
        # No chunk ever has a single row (the GEMV kernel hazard).
        from repro.serving.index import _query_chunks

        for n in (1, 2, 5, 100, 101):
            for cs in (1, 2, 3, 10, 100, None):
                chunks = _query_chunks(n, cs)
                assert sum(len(c) for c in chunks) == n
                assert [c.start for c in chunks] == sorted(
                    c.start for c in chunks
                )
                if cs not in (None, 1) and n > 1:
                    assert all(len(c) > 1 or len(chunks) == 1 for c in chunks)

    def test_search_by_vector(self, rng):
        e = rng.standard_normal((40, 6))
        index = BruteForceIndex(e)
        idx, sims = index.search(e[7] * 3.0, 1)  # scaled copy of row 7
        assert idx[0, 0] == 7
        assert sims[0, 0] == pytest.approx(1.0)

    def test_k_validation_and_clamp(self, rng):
        e = rng.standard_normal((5, 3))
        index = BruteForceIndex(e)
        with pytest.raises(ValueError):
            index.search(e[:2], 0)
        idx, _ = index.search_ids(np.array([0, 1]), 10)
        assert idx.shape == (2, 4)  # n-1 with self excluded

    def test_rows_scanned_accounting(self, rng):
        e = rng.standard_normal((30, 4))
        index = BruteForceIndex(e)
        index.search_ids(np.arange(6), 3)
        assert index.last_rows_scanned == 6 * 30

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_index_excluding_its_row_pads(self, rng, dtype):
        # Nothing is left to return: the excluded row's -inf column is
        # padding (-1 / -inf, as ClusterIndex pads), not an answer whose
        # similarity gets recomputed to 1.0.
        e = rng.standard_normal((1, 6))
        for index in (BruteForceIndex(e, dtype=dtype), ClusterIndex(e, dtype=dtype)):
            idx, sims = index.search_ids(np.array([0, 0]), 3)
            assert np.all(idx == -1)
            assert np.all(np.isneginf(sims))
            assert sims.dtype == dtype
        # By vector nothing is excluded and the row is the answer.
        idx, sims = BruteForceIndex(e).search(e[0], 3)
        assert idx.tolist() == [[0]] and sims[0, 0] == pytest.approx(1.0)


class TestClusterIndex:
    def test_full_probes_match_exact(self, rng):
        e = clustered_embeddings(n=400, clusters=8)
        exact, _ = BruteForceIndex(e).search_ids(np.arange(50), 10)
        ci = ClusterIndex(e, num_clusters=8, rng=np.random.default_rng(1))
        approx, _ = ci.search_ids(np.arange(50), 10, probes=8)
        assert recall_at_k(approx, exact) == 1.0

    def test_recall_improves_with_probes(self, rng):
        e = clustered_embeddings(n=900, clusters=16, spread=0.5, seed=3)
        q = np.arange(0, 900, 7)
        exact, _ = BruteForceIndex(e).search_ids(q, 10)
        ci = ClusterIndex(e, num_clusters=16, rng=np.random.default_rng(1))
        recalls = []
        for probes in (1, 4, 16):
            approx, _ = ci.search_ids(q, 10, probes=probes)
            recalls.append(recall_at_k(approx, exact))
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[-1] == 1.0

    def test_probing_scans_fewer_rows(self):
        e = clustered_embeddings(n=800, clusters=16)
        ci = ClusterIndex(e, num_clusters=16, probes=2, rng=np.random.default_rng(0))
        ci.search_ids(np.arange(20), 5)
        assert 0 < ci.last_rows_scanned < 20 * 800 * 0.5

    def test_high_recall_on_clustered_data(self):
        e = clustered_embeddings(n=1000, clusters=10, spread=0.1)
        q = np.arange(100)
        exact, _ = BruteForceIndex(e).search_ids(q, 10)
        ci = ClusterIndex(e, num_clusters=10, probes=2, rng=np.random.default_rng(2))
        approx, _ = ci.search_ids(q, 10)
        assert recall_at_k(approx, exact) >= 0.9

    def test_excludes_self(self):
        e = clustered_embeddings(n=200, clusters=4)
        ci = ClusterIndex(e, num_clusters=4, probes=4, rng=np.random.default_rng(0))
        q = np.arange(30)
        idx, _ = ci.search_ids(q, 5)
        for i, row in zip(q, idx):
            assert i not in row

    def test_padding_when_candidates_short(self):
        # 1 probe of a tiny cell can yield fewer than k candidates.
        e = clustered_embeddings(n=20, clusters=10, spread=0.01, seed=1)
        ci = ClusterIndex(e, num_clusters=10, probes=1, rng=np.random.default_rng(0))
        idx, sims = ci.search_ids(np.array([0]), 15)
        pad = idx[0] == -1
        assert np.all(np.isneginf(sims[0, pad]))
        assert np.all(np.isfinite(sims[0, ~pad]))

    def test_validation(self, rng):
        e = rng.standard_normal((10, 3))
        with pytest.raises(ValueError):
            ClusterIndex(e, num_clusters=11)
        with pytest.raises(ValueError):
            ClusterIndex(np.empty((0, 3)))


class TestRecallHelper:
    def test_exact_oracle(self):
        approx = np.array([[1, 2, 3], [4, 5, 6]])
        exact = np.array([[1, 2, 9], [4, 5, 6]])
        assert recall_at_k(approx, exact) == pytest.approx((2 / 3 + 1.0) / 2)

    def test_padding_ignored(self):
        approx = np.array([[1, -1, -1]])
        exact = np.array([[1, 2, -1]])
        assert recall_at_k(approx, exact) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            recall_at_k(np.zeros((2, 3)), np.zeros((3, 3)))


class TestFactory:
    def test_build_index(self, rng):
        e = rng.standard_normal((50, 4))
        assert isinstance(build_index(e, "brute"), BruteForceIndex)
        assert isinstance(
            build_index(e, "cluster", num_clusters=5), ClusterIndex
        )
        with pytest.raises(ValueError):
            build_index(e, "kdtree")


@pytest.mark.parametrize("kind", ["brute", "cluster"])
def test_one_member_shard_behind_sharded_index(rng, kind):
    e = rng.standard_normal((9, 4))
    assignment = np.array([0, 1, 1, 1, 1, 2, 2, 2, 2])  # vertex 0 alone
    kwargs = dict(index_kwargs=dict(num_clusters=1)) if kind == "cluster" else {}
    sharded = ShardedIndex(e, assignment, index=kind, **kwargs)
    want = BruteForceIndex(e).search_ids(np.array([0, 3]), 3)
    got = sharded.search_ids(np.array([0, 3]), 3)
    assert np.array_equal(got[0], want[0]) and np.allclose(got[1], want[1])
    # Routed to its own shard only, vertex 0 has no neighbour there.
    idx, sims = sharded.search_ids(np.array([0]), 3, fanout=1)
    assert np.all(idx == -1) and np.all(np.isneginf(sims))
