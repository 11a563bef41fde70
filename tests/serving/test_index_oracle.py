"""The slab index against its oracle: same bits, same kernel calls.

``_reference_index.py`` keeps the per-cell-gather / per-query-merge
search and the mask-per-cell k-means update the index used before rows
were stored cell-contiguously. The slab layout, the one-sort pair
grouping, the padded candidate buffer and the segment k-means are pure
re-arrangements of the same arithmetic, so ids, similarities,
``last_rows_scanned``, centroids and assignments must be *equal*, not
close — and the GEMMs must be the same calls (count, flops, shape
classes), which is what keeps the recorded kernel series comparable.

Query rows are continuous random data: exact similarity ties, where any
top-k may legitimately order ids differently, do not occur in them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import accounting
from repro.serving import index as index_module
from repro.serving.index import ClusterIndex, _spherical_kmeans, l2_normalize_rows

from ._reference_index import ReferenceClusterIndex, reference_kmeans

DTYPES = st.sampled_from([np.float32, np.float64])


def _points(rng, n, dim, dtype):
    centers = rng.standard_normal((max(n // 12, 1), dim))
    which = rng.integers(0, centers.shape[0], size=n)
    return (centers[which] + 0.4 * rng.standard_normal((n, dim))).astype(dtype)


def _metered(fn):
    """``fn()`` plus what it cost in kernels: gemm calls, flops, classes."""
    accounting.reset_totals()
    with accounting.capture() as counters:
        out = fn()
    return out, (counters.gemm_calls, counters.gemm_flops, sorted(accounting.PER_CLASS))


def _assert_same_answers(new, ref, run):
    (got, got_cost), (want, want_cost) = _metered(lambda: run(new)), _metered(lambda: run(ref))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[1].dtype == want[1].dtype
    assert new.last_rows_scanned == ref.last_rows_scanned
    assert got_cost == want_cost


class TestSearchMatchesReference:
    @given(
        n=st.integers(1, 160),
        dim=st.integers(3, 12),
        cells=st.integers(1, 14),
        probes=st.one_of(st.none(), st.integers(1, 17)),
        num_q=st.sampled_from([1, 2, 64]),
        k=st.integers(1, 200),
        by_id=st.booleans(),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=120, deadline=None)
    def test_kmeans_cells(self, n, dim, cells, probes, num_q, k, by_id, dtype, seed):
        rng = np.random.default_rng(seed)
        points = _points(rng, n, dim, dtype)
        kwargs = dict(num_clusters=min(cells, n), probes=3, kmeans_iters=3, dtype=dtype)
        new = ClusterIndex(points, rng=np.random.default_rng(seed), **kwargs)
        ref = ReferenceClusterIndex(points, rng=np.random.default_rng(seed), **kwargs)
        assert np.array_equal(new.centroids, ref.centroids)
        assert np.array_equal(new.assignments, ref.assignments)
        if by_id:
            qids = rng.integers(0, n, size=num_q)
            _assert_same_answers(new, ref, lambda ix: ix.search_ids(qids, k, probes=probes))
        else:
            queries = rng.standard_normal((num_q, dim))
            _assert_same_answers(new, ref, lambda ix: ix.search(queries, k, probes=probes))

    @given(
        n=st.integers(2, 120),
        stride=st.integers(2, 4),
        probes=st.integers(1, 12),
        num_q=st.sampled_from([1, 2, 64]),
        k=st.integers(1, 40),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_external_cells_with_gaps(self, n, stride, probes, num_q, k, dtype, seed):
        # Only every ``stride``-th cell owns rows: the rest are empty and
        # may be probed (zero centroid), scanning nothing.
        rng = np.random.default_rng(seed)
        points = _points(rng, n, 6, dtype)
        assignments = rng.integers(0, 4, size=n) * stride
        new = ClusterIndex(points, assignments=assignments, dtype=dtype)
        ref = ReferenceClusterIndex(points, assignments=assignments, dtype=dtype)
        assert np.array_equal(new.centroids, ref.centroids)
        qids = rng.integers(0, n, size=num_q)
        _assert_same_answers(new, ref, lambda ix: ix.search_ids(qids, k, probes=probes))

    def test_one_gemm_per_probed_cell(self):
        points = _points(np.random.default_rng(0), 300, 8, np.float64)
        new = ClusterIndex(points, num_clusters=10, probes=3)
        qids = np.arange(20)
        _, (calls, _, _) = _metered(lambda: new.search_ids(qids, 5))
        centroid_sims = l2_normalize_rows(points)[qids] @ new.centroids.T
        probed = np.unique(np.argsort(-centroid_sims, axis=1)[:, :3])
        assert calls == 1 + probed.size  # the centroid pass + one per cell


class TestKMeansMatchesReference:
    @given(
        n=st.integers(2, 150),
        distinct=st.integers(1, 150),
        cells=st.integers(1, 20),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=120, deadline=None)
    def test_centroids_and_assignments(self, n, distinct, cells, dtype, seed):
        # Rows drawn from ``distinct`` points: with fewer points than
        # cells the duplicates leave cells empty and the reseed runs.
        rng = np.random.default_rng(seed)
        base = l2_normalize_rows(rng.standard_normal((min(distinct, n), 5)), dtype=dtype)
        normed = base[rng.integers(0, base.shape[0], size=n)]
        cells = min(cells, n)
        got = _spherical_kmeans(normed, cells, np.random.default_rng(seed), iters=4)
        want = reference_kmeans(normed, cells, np.random.default_rng(seed), iters=4)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_reseed_that_empties_a_later_cell_is_exercised(self, monkeypatch):
        # Guard the hypothesis test above against going blind: on this
        # input a reseed takes a row from a cell still to come, which is
        # the one case where the sorted layout must be rebuilt mid-pass.
        layouts = []
        real = index_module._cell_layout

        def spy(assignments, num_cells):
            layouts.append(1)
            return real(assignments, num_cells)

        monkeypatch.setattr(index_module, "_cell_layout", spy)
        rng = np.random.default_rng(24)
        base = l2_normalize_rows(rng.standard_normal((5, 5)))
        normed = base[rng.integers(0, 5, size=40)]
        got = _spherical_kmeans(normed, 8, np.random.default_rng(24), iters=2)
        want = reference_kmeans(normed, 8, np.random.default_rng(24), iters=2)
        assert len(layouts) > 2  # more than the one sort per iteration
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_empty_query_batch_returns_empty_answers():
    index = ClusterIndex(np.random.default_rng(0).standard_normal((30, 4)), num_clusters=5)
    idx, sims = index.search(np.empty((0, 4)), 3)
    assert idx.shape == sims.shape == (0, 3)
    assert index.last_rows_scanned == 0


class TestProbesValidation:
    def test_zero_probes_is_an_error_not_the_default(self):
        rng = np.random.default_rng(0)
        index = ClusterIndex(rng.standard_normal((30, 4)), num_clusters=5, probes=2)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="probes"):
                index.search(np.ones((1, 4)), 3, probes=bad)
            with pytest.raises(ValueError, match="probes"):
                index.search_ids(np.array([0]), 3, probes=bad)
        default, _ = index.search_ids(np.arange(4), 3)
        explicit, _ = index.search_ids(np.arange(4), 3, probes=None)
        assert np.array_equal(default, explicit)
        over, _ = index.search_ids(np.arange(4), 3, probes=99)  # clamps
        full, _ = index.search_ids(np.arange(4), 3, probes=5)
        assert np.array_equal(over, full)
