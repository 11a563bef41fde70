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
    accounting.reset_per_class()
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


def _pinned(dtype, **overrides):
    """One fixed corpus under the slab index and its oracle."""
    points = _points(np.random.default_rng(5), 160, 8, dtype)
    kwargs = dict(num_clusters=8, probes=2, dtype=dtype) | overrides
    new = ClusterIndex(points, rng=np.random.default_rng(5), **kwargs)
    ref = ReferenceClusterIndex(points, rng=np.random.default_rng(5), **kwargs)
    return points, new, ref


def _over_cells(points, assignments, dtype, probes=4):
    """The slab index and its oracle over fixed cells. A build always runs
    k-means, which leaves no cell empty; the scan's empty-cell cases are
    reached by laying the slab out over cells with gaps directly."""
    ref = ReferenceClusterIndex(points, assignments=assignments, probes=probes, dtype=dtype)
    new = object.__new__(ClusterIndex)
    new.dtype, new.num_clusters, new.lloyd_iterations = ref.dtype, ref.num_clusters, 0
    new.default_probes = ref.default_probes
    new._lay_out(l2_normalize_rows(points, dtype=dtype), ref.assignments, ref.centroids)
    return new, ref


def _probed(index, qids, probes):
    """Each indexed query's probed cells, from the index's own centroids."""
    sims = index._slab[index._slot[qids]] @ index.centroids.T
    return [frozenset(row.tolist()) for row in np.argsort(-sims, axis=1)[:, :probes]]


BOTH_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64])


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
        kwargs = dict(num_clusters=min(cells, n), probes=3, dtype=dtype)
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
        new, ref = _over_cells(points, assignments, dtype)
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

    # The batches the e2e replays actually issue (one or two queries a
    # call, every cell probed on a small shard), which hypothesis above
    # reaches only now and then: pinned, same bits and same kernel cost.
    @BOTH_DTYPES
    @pytest.mark.parametrize("by_id", [True, False])
    def test_one_query(self, dtype, by_id):
        points, new, ref = _pinned(dtype)
        for q in (0, 17, 159):
            if by_id:
                _assert_same_answers(new, ref, lambda ix: ix.search_ids([q], 10))
            else:
                _assert_same_answers(new, ref, lambda ix: ix.search(points[q] * 2.5, 11))

    @BOTH_DTYPES
    @pytest.mark.parametrize("overlap", ["disjoint", "same"])
    def test_two_queries(self, dtype, overlap):
        _, new, ref = _pinned(dtype)
        probed = _probed(new, np.arange(160), 2)
        wanted = (lambda a, b: not a & b) if overlap == "disjoint" else (lambda a, b: a == b)
        qids = next([0, j] for j in range(1, 160) if wanted(probed[0], probed[j]))
        _assert_same_answers(new, ref, lambda ix: ix.search_ids(qids, 10))

    @BOTH_DTYPES
    def test_duplicate_ids_in_a_batch(self, dtype):
        _, new, ref = _pinned(dtype)
        _assert_same_answers(new, ref, lambda ix: ix.search_ids([7, 7, 30, 7], 10))

    @BOTH_DTYPES
    @pytest.mark.parametrize("num_q", [1, 2])
    @pytest.mark.parametrize("probes", [8, 50])
    def test_every_cell_probed(self, dtype, probes, num_q):
        _, new, ref = _pinned(dtype)
        qids = np.arange(3, 3 + num_q)
        _assert_same_answers(new, ref, lambda ix: ix.search_ids(qids, 10, probes=probes))
        assert new.last_rows_scanned == num_q * 160

    @BOTH_DTYPES
    @pytest.mark.parametrize("num_q", [1, 3])
    def test_k_beyond_the_scanned_rows_pads_both_outputs(self, dtype, num_q):
        _, new, ref = _pinned(dtype)
        qids = np.arange(num_q)
        _assert_same_answers(new, ref, lambda ix: ix.search_ids(qids, 200, probes=1))
        idx, sims = new.search_ids(qids, 200, probes=1)
        assert idx.shape == sims.shape == (num_q, 200)
        assert np.array_equal(idx == -1, np.isneginf(sims)) and (idx[:, -1] == -1).all()

    @BOTH_DTYPES
    @pytest.mark.parametrize("num_q", [1, 2])
    def test_probed_cells_all_empty(self, dtype, num_q):
        # Cells 0 and 5 own the rows; a query pointing away from both
        # ranks the four zero centroids first and scans nothing.
        points = _points(np.random.default_rng(5), 40, 6, dtype)
        assignments = np.where(np.arange(40) < 20, 0, 5)
        new, ref = _over_cells(points, assignments, dtype, probes=2)
        away = np.tile(-(new.centroids[0] + new.centroids[5]), (num_q, 1))
        assert (away @ new.centroids.T)[:, [0, 5]].max() < 0
        _assert_same_answers(new, ref, lambda ix: ix.search(away, 4))
        idx, sims = new.search(away, 4)
        assert new.last_rows_scanned == 0
        assert (idx == -1).all() and np.isneginf(sims).all()

    @BOTH_DTYPES
    def test_no_queries(self, dtype):
        _, new, ref = _pinned(dtype)
        _assert_same_answers(new, ref, lambda ix: ix.search(np.empty((0, 8)), 10))
        _assert_same_answers(new, ref, lambda ix: ix.search_ids(np.empty(0, dtype=np.int64), 10))


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
        # input a reseed takes a row from a cell still to come, the one
        # case where a row leaves a mean the pass has not taken yet.
        later = []
        real = index_module._plan_reseeds

        def spy(sims, argmax, num_cells):
            planned = real(sims, argmax, num_cells)
            cells, rows = planned[2]
            later.extend(int(c) for c, w in zip(cells, rows) if argmax[w] > c)
            return planned

        monkeypatch.setattr(index_module, "_plan_reseeds", spy)
        rng = np.random.default_rng(24)
        base = l2_normalize_rows(rng.standard_normal((5, 5)))
        normed = base[rng.integers(0, 5, size=40)]
        got = _spherical_kmeans(normed, 8, np.random.default_rng(24), iters=2)
        want = reference_kmeans(normed, 8, np.random.default_rng(24), iters=2)
        assert later  # a row taken from a cell the pass had not averaged
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("distinct", [5, 400])
    def test_one_segment_sum_per_iteration(self, distinct):
        # The per-cell sums are one metered CSR product an iteration,
        # reseed iterations included (5 distinct rows over 8 cells leave
        # cells empty every pass): a per-cell loop cannot come back unseen.
        rng = np.random.default_rng(24)
        normed = self._rows(rng, 400, distinct, np.float64)
        accounting.reset_per_class()
        with accounting.capture() as seen:
            _, _, ran = _spherical_kmeans(normed, 8, np.random.default_rng(24), iters=6)
        cell_sums = [b.calls for key, b in accounting.PER_CLASS.items() if key.endswith("|cells]")]
        assert ran == 6
        assert seen.spmm_calls == sum(cell_sums) == ran
        assert seen.spmm_flops == ran * accounting.spmm_flop_count(400, 5)

    @staticmethod
    def _rows(rng, n, distinct, dtype):
        base = l2_normalize_rows(rng.standard_normal((min(distinct, n), 5)), dtype=dtype)
        return base[rng.integers(0, base.shape[0], size=n)]

    @given(
        n=st.integers(2, 150),
        distinct=st.integers(1, 150),
        cells=st.integers(1, 20),
        iters=st.sampled_from([4, 12, 40]),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_cold_start_is_exact_and_pays_every_iteration(
        self, n, distinct, cells, iters, dtype, seed
    ):
        # Lazy ``best`` and the copied arg-max must not be told apart from
        # the reference, reseeds and duplicate rows included; a cold build
        # costs ``iters`` whatever the rows are (only a warm start stops
        # at its fixed point).
        normed = self._rows(np.random.default_rng(seed), n, distinct, dtype)
        cells = min(cells, n)
        rng = np.random.default_rng(seed)
        centroids, assignments, ran = _spherical_kmeans(normed, cells, rng, iters=iters)
        want = reference_kmeans(normed, cells, np.random.default_rng(seed), iters=iters)
        assert np.array_equal(centroids, want[0])
        assert np.array_equal(assignments, want[1])
        assert ran == iters
        # The cold start draws its seeds exactly as before: one
        # ``rng.choice``, nothing else (what keeps ShardedIndex's
        # per-shard streams and partition_vertices where they were).
        ref_rng = np.random.default_rng(seed)
        ref_rng.choice(n, size=cells, replace=False)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        n=st.integers(2, 150),
        distinct=st.integers(1, 150),
        cells=st.integers(1, 20),
        iters=st.sampled_from([4, 12, 40]),
        drift=st.sampled_from([0.0, 0.01, 0.5, None]),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_warm_start_matches_reference_from_the_same_centroids(
        self, n, distinct, cells, iters, drift, dtype, seed
    ):
        # Centroids fitted to old rows, then Lloyd on rows that drifted
        # (``None``: unrelated rows, so old centroids can attract nothing
        # and the reseed runs from a warm start too).
        rng = np.random.default_rng(seed)
        old = self._rows(rng, n, distinct, dtype)
        cells = min(cells, n)
        init = _spherical_kmeans(old, cells, np.random.default_rng(seed), iters=3)[0]
        if drift is None:
            new = self._rows(rng, n, distinct, dtype)
        else:
            new = l2_normalize_rows(old + drift * rng.standard_normal(old.shape), dtype=dtype)
        kept = init.copy()
        got = _spherical_kmeans(new, cells, None, iters=iters, init=init)  # no rng needed
        want = reference_kmeans(new, cells, None, iters=iters, init=init)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(init, kept)  # the caller's centroids are not written to

    @pytest.mark.parametrize("seed, n, distinct", [(115, 8, 6), (320, 4, 4)])
    def test_rows_moved_by_a_reseed_do_not_count_as_a_repeat(self, seed, n, distinct):
        # An iteration reseeds cell 1 with a row of cell 0 (whose mean was
        # already taken with that row in it); the next iteration's arg-max
        # equals the *reseeded* assignments, which is not a repeat of the
        # previous arg-max: stopping there returns the wrong centroids.
        rng = np.random.default_rng(seed)
        rng.integers(0, 2, size=3)  # the search that found these inputs drew three sizes first
        base = l2_normalize_rows(rng.standard_normal((distinct, 3)))
        normed = base[rng.integers(0, distinct, size=n)]
        got = _spherical_kmeans(normed, 2, np.random.default_rng(seed), iters=12)
        want = reference_kmeans(normed, 2, np.random.default_rng(seed), iters=12)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_the_exit_fires_and_costs_what_the_drift_costs(self):
        # Guard the properties above against going blind: a warm start
        # far from the answer reaches its fixed point well inside the
        # cap, an unmoved one pays the minimum (one pass to assign, one to
        # see it repeat), a cold one pays the cap, and the GEMM count is
        # the iteration count.
        rng = np.random.default_rng(3)
        normed = l2_normalize_rows(_points(rng, 400, 8, np.float64))
        (rough, _, cold), (cold_gemms, _, _) = _metered(
            lambda: _spherical_kmeans(normed, 6, np.random.default_rng(3), iters=1)
        )
        assert cold == cold_gemms == 1
        (centroids, _, far), (far_gemms, _, _) = _metered(
            lambda: _spherical_kmeans(normed, 6, None, iters=40, init=rough)
        )
        assert 2 < far < 40 and far_gemms == far
        (_, _, warm), (warm_gemms, _, _) = _metered(
            lambda: _spherical_kmeans(normed, 6, None, iters=40, init=centroids)
        )
        assert warm == warm_gemms == 2


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


@pytest.mark.usefixtures("blas_one_thread")
def test_a_full_corpus_build_with_halved_products_is_the_serial_reference(gemm_pair_mode):
    # serve_mixed's single-server corpus: 7 168 x 256 in 128 cells. With
    # one BLAS thread on two cores every Lloyd assignment product (and
    # the 1 024-query centroid ranking) runs its row halves at once; the
    # oracle runs every product serially. Cells, centroids, answers and
    # kernel calls must still be the same.
    points = _points(np.random.default_rng(310), 7168, 256, np.float64)
    queries = np.random.default_rng(311).standard_normal((1024, 256))
    kwargs = dict(num_clusters=128, probes=16, dtype=np.float64)

    def build_and_search(index_cls):
        index = index_cls(points, rng=np.random.default_rng(7), **kwargs)
        return index, _metered(lambda: index.search(queries, 10))

    gemm_pair_mode(2)
    ref, (want, want_cost) = build_and_search(ReferenceClusterIndex)
    submitted = gemm_pair_mode(1)
    new, (got, got_cost) = build_and_search(ClusterIndex)
    # 12 Lloyd iterations, then the search's centroid ranking
    assert submitted.halves == [(3584, 256, 128)] * 12 + [(512, 256, 128)]
    assert np.array_equal(new.centroids, ref.centroids)
    assert np.array_equal(new.assignments, ref.assignments)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert new.last_rows_scanned == ref.last_rows_scanned
    assert got_cost == want_cost
