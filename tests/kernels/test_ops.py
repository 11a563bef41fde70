"""Dispatch-layer kernels: bit-identity, the GEMM out= buffer, validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import accounting
from repro.kernels import ops as kernel_ops
from repro.kernels.sparse import adjacency_matrix
from repro.propagation.spmm import spmm_sum_numpy

#: The metered CSR kernel and the pure-numpy oracle it is held to.
SPMMS = {"scipy": kernel_ops.spmm, "numpy": spmm_sum_numpy}


class TestGemm:
    def test_bit_identical_to_matmul(self, rng):
        a = rng.standard_normal((17, 9))
        b = rng.standard_normal((9, 5))
        np.testing.assert_array_equal(kernel_ops.gemm(a, b), a @ b)

    def test_out_buffer_bit_identical(self, rng):
        a = rng.standard_normal((8, 6))
        b = rng.standard_normal((6, 4))
        out = np.empty((8, 4))
        returned = kernel_ops.gemm(a, b, out=out)
        assert returned is out
        np.testing.assert_array_equal(out, a @ b)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            kernel_ops.gemm(rng.standard_normal(4), rng.standard_normal((4, 2)))

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            kernel_ops.gemm(
                rng.standard_normal((3, 4)), rng.standard_normal((5, 2))
            )


#: A reddit_wide subgraph's layer products: 326 vertices, f = 602 into
#: the first layer and 2 x 512 into the second, 512 wide per branch.
WIDE = ((326, 602, 512), (326, 1024, 512))


def _class_calls_and_flops() -> dict[str, tuple[int, float]]:
    return {k: (c.calls, c.flops) for k, c in accounting.PER_CLASS.items()}


def _delta(before, after) -> dict[str, tuple[int, float]]:
    return {
        k: (calls - before.get(k, (0, 0.0))[0], flops - before.get(k, (0, 0.0))[1])
        for k, (calls, flops) in after.items()
        if (calls, flops) != before.get(k)
    }


@pytest.mark.usefixtures("blas_one_thread")
class TestGemmPair:
    """``gemm_pair`` on both of its paths: the same bits and the same
    metering whether the first product runs on the worker or not."""

    def _operands(self, rng, m, k, n):
        return [rng.standard_normal(shape) for shape in ((m, k), (k, n), (m, k), (k, n))]

    def _run(self, a1, b1, a2, b2, into_z):
        if into_z:  # the forward's halves of one pre-activation z
            z = np.empty((a1.shape[0], b1.shape[1] + b2.shape[1]))
            first, second = z[:, : b1.shape[1]], z[:, b1.shape[1] :]
            returned = kernel_ops.gemm_pair(a1, b1, first, a2, b2, second)
            assert returned[0] is first and returned[1] is second
            return z
        return np.concatenate(kernel_ops.gemm_pair(a1, b1, None, a2, b2, None), axis=1)

    @pytest.mark.parametrize("shape", WIDE)
    @pytest.mark.parametrize("into_z", [True, False])
    def test_concurrent_pair_is_two_serial_gemms(self, rng, gemm_pair_mode, shape, into_z):
        a1, b1, a2, b2 = self._operands(rng, *shape)
        serial = np.concatenate([a1 @ b1, a2 @ b2], axis=1)
        submitted = gemm_pair_mode(1)
        before = _class_calls_and_flops()
        with accounting.capture() as seen:
            paired = self._run(a1, b1, a2, b2, into_z)
        assert submitted == [shape]
        assert submitted.halves == []  # the pair holds the worker: no split
        np.testing.assert_array_equal(paired, serial)
        # one call per product, under the class gemm() would give it
        variant = "out" if into_z else "alloc"
        key = accounting.ShapeClass.for_gemm(*shape, np.dtype(np.float64), variant=variant).key
        assert _delta(before, _class_calls_and_flops()) == {
            key: (2, 2 * accounting.gemm_flop_count(*shape))
        }
        assert (seen.gemm_calls, seen.gemm_flops) == (2, 2 * accounting.gemm_flop_count(*shape))
        assert seen.gemm_seconds > 0

    def test_transposed_operands_and_mixed_outputs(self, rng, gemm_pair_mode):
        # A weight-gradient pair (h^T dz into a grad buffer) beside an
        # input-gradient product (dz W^T, fresh): DenseLayer.backward's.
        h, dz, w = (rng.standard_normal(s) for s in ((326, 1024), (326, 512), (1024, 512)))
        grad = np.empty((1024, 512))
        gemm_pair_mode(1)
        returned, dx = kernel_ops.gemm_pair(h.T, dz, grad, dz, w.T, None)
        assert returned is grad
        np.testing.assert_array_equal(grad, h.T @ dz)
        np.testing.assert_array_equal(dx, dz @ w.T)

    @pytest.mark.parametrize(
        "threads, cores, shape",
        [
            (1, 2, (64, 128, 512)),  # 2^23 flops: under the floor
            (2, 2, WIDE[0]),  # OpenBLAS threads its own calls
            (None, 2, WIDE[0]),  # the thread count cannot be read
            (1, 1, WIDE[0]),  # one usable core
        ],
    )
    def test_serial_unless_all_three_conditions_hold(
        self, rng, gemm_pair_mode, threads, cores, shape
    ):
        a1, b1, a2, b2 = self._operands(rng, *shape)
        submitted = gemm_pair_mode(threads, cores)
        before = _class_calls_and_flops()
        first, second = kernel_ops.gemm_pair(a1, b1, None, a2, b2, None)
        assert submitted == [] and submitted.halves == []
        np.testing.assert_array_equal(first, a1 @ b1)
        np.testing.assert_array_equal(second, a2 @ b2)
        assert sum(c for c, _ in _delta(before, _class_calls_and_flops()).values()) == 2

    def test_floor_is_per_product(self, rng, gemm_pair_mode):
        big = self._operands(rng, *WIDE[0])
        small = self._operands(rng, 8, 8, 8)
        submitted = gemm_pair_mode(1)
        kernel_ops.gemm_pair(big[0], big[1], None, small[2], small[3], None)
        kernel_ops.gemm_pair(small[0], small[1], None, big[2], big[3], None)
        assert submitted == []
        # each serial wide product then splits on its own
        assert submitted.halves == [(WIDE[0][0] // 2, *WIDE[0][1:])] * 2

    def test_a_busy_worker_means_a_serial_pair(self, rng, gemm_pair_mode):
        a1, b1, a2, b2 = self._operands(rng, *WIDE[0])
        submitted = gemm_pair_mode(1)
        with kernel_ops._WORKER.busy:  # another thread's pair
            first, _ = kernel_ops.gemm_pair(a1, b1, None, a2, b2, None)
        assert submitted == [] and submitted.halves == []
        np.testing.assert_array_equal(first, a1 @ b1)

    def test_concurrent_callers_each_get_their_own_products(self, gemm_pair_mode):
        # Four threads pairing at once on two cores, switching often: one
        # holds the worker, the others fall back to serial, and a result
        # handed to the wrong caller would break the equality.
        import sys
        import threading

        submitted = gemm_pair_mode(1)
        shape = (256, 256, 256)  # 2^25 flops a product
        operands = [self._operands(np.random.default_rng(seed), *shape) for seed in range(4)]
        expected = [(a1 @ b1, a2 @ b2) for a1, b1, a2, b2 in operands]
        mismatches = []

        def caller(i):
            a1, b1, a2, b2 = operands[i]
            for _ in range(5):
                first, second = kernel_ops.gemm_pair(a1, b1, None, a2, b2, None)
                if not (np.array_equal(first, expected[i][0]) and np.array_equal(second, expected[i][1])):
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        assert submitted  # the worker ran some of the pairs

    def test_worker_error_reaches_the_caller(self, rng, gemm_pair_mode):
        a1, b1, a2, b2 = self._operands(rng, *WIDE[0])
        submitted = gemm_pair_mode(1)
        before = _class_calls_and_flops()
        with pytest.raises(ValueError):  # matmul rejects the out shape
            kernel_ops.gemm_pair(a1, b1, np.empty((3, 3)), a2, b2, None)
        assert submitted == [WIDE[0]]
        # the caller's half was recorded, the failed product was not
        assert sum(c for c, _ in _delta(before, _class_calls_and_flops()).values()) == 1
        # and the worker takes the next pair
        first, _ = kernel_ops.gemm_pair(a1, b1, None, a2, b2, None)
        assert len(submitted) == 2
        np.testing.assert_array_equal(first, a1 @ b1)

    def test_validates_both_products_first(self, rng, gemm_pair_mode):
        a1, b1, a2, b2 = self._operands(rng, *WIDE[0])
        submitted = gemm_pair_mode(1)
        with pytest.raises(ValueError, match="mismatch"):
            kernel_ops.gemm_pair(a1, b1, None, a2, b2.T, None)
        with pytest.raises(ValueError, match="2-D"):
            kernel_ops.gemm_pair(a1[0], b1, None, a2, b2, None)
        assert submitted == []


#: Single products above the floor: serve_mixed's Lloyd assignment
#: (7 168 x 256 rows against 128 centroids, transposed), a 1 864 x 1 024
#: corpus against 32 centroids, 6 396 x 256 against 64, and reddit_wide's
#: training head forward (480 x 1 024 into 41 classes).
HALVED = ((7168, 256, 128), (1864, 1024, 32), (6396, 256, 64), (480, 1024, 41))


@pytest.mark.usefixtures("blas_one_thread")
class TestGemmHalves:
    """``gemm`` of one wide product: its row halves at once, the same bits
    and the same one record as the serial call."""

    @staticmethod
    def _operands(rng, m, k, n):
        # b is a transposed row-major matrix, like centroids.T
        return rng.standard_normal((m, k)), rng.standard_normal((n, k)).T

    @pytest.mark.parametrize("shape", HALVED)
    @pytest.mark.parametrize("into_out", [True, False])
    def test_halves_are_the_serial_bits(self, rng, gemm_pair_mode, shape, into_out):
        a, b = self._operands(rng, *shape)
        m = shape[0]
        submitted = gemm_pair_mode(1)
        out = np.empty((m, shape[2])) if into_out else None
        returned = kernel_ops.gemm(a, b, out=out)
        assert submitted == [] and submitted.halves == [(m - m // 2, *shape[1:])]
        assert returned is out if into_out else returned.flags.c_contiguous
        assert returned.dtype == (a @ b).dtype
        np.testing.assert_array_equal(returned, a @ b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_odd_rows_and_transposed_a(self, rng, gemm_pair_mode, dtype):
        # BipartiteGCNLayer.backward's weight gradient: h_agg^T @ dz into
        # the gradient buffer; and an odd row count, halves 3 583 / 3 584.
        h_agg = rng.standard_normal((326, 1024)).astype(dtype)
        dz = rng.standard_normal((326, 512)).astype(dtype)
        a, b = (x.astype(dtype) for x in self._operands(rng, 7167, 256, 128))
        submitted = gemm_pair_mode(1)
        grad = np.empty((1024, 512), dtype)
        kernel_ops.gemm(h_agg.T, dz, out=grad)
        odd = kernel_ops.gemm(a, b)
        assert submitted.halves == [(512, 326, 512), (3584, 256, 128)]
        np.testing.assert_array_equal(grad, h_agg.T @ dz)
        np.testing.assert_array_equal(odd, a @ b)
        assert odd.dtype == dtype

    @pytest.mark.parametrize("into_out", [True, False])
    def test_one_record_with_the_serial_class_and_flops(self, rng, gemm_pair_mode, into_out):
        a, b = self._operands(rng, *HALVED[0])
        out = np.empty((a.shape[0], b.shape[1])) if into_out else None

        def metered():
            before = _class_calls_and_flops()
            with accounting.capture() as seen:
                kernel_ops.gemm(a, b, out=out)
            return _delta(before, _class_calls_and_flops()), seen

        gemm_pair_mode(2)
        serial, _ = metered()
        submitted = gemm_pair_mode(1)
        split, seen = metered()
        assert len(submitted.halves) == 1
        variant = "out" if into_out else "alloc"
        key = accounting.ShapeClass.for_gemm(*HALVED[0], np.dtype(np.float64), variant=variant).key
        flops = accounting.gemm_flop_count(*HALVED[0])
        assert split == serial == {key: (1, flops)}
        assert (seen.gemm_calls, seen.gemm_flops) == (1, flops)
        assert seen.gemm_seconds > 0

    @pytest.mark.parametrize(
        "threads, cores, shape",
        [
            (1, 2, (64, 512, 511)),  # m k n just under 2^24
            (1, 2, (3, 2048, 2731)),  # halves of 1 and 2 rows
            (2, 2, HALVED[0]),  # OpenBLAS threads its own calls
            (None, 2, HALVED[0]),  # the thread count cannot be read
            (1, 1, HALVED[0]),  # one usable core
        ],
    )
    def test_serial_unless_every_condition_holds(self, rng, gemm_pair_mode, threads, cores, shape):
        a, b = self._operands(rng, *shape)
        submitted = gemm_pair_mode(threads, cores)
        with accounting.capture() as seen:
            result = kernel_ops.gemm(a, b)
        assert submitted.halves == [] and seen.gemm_calls == 1
        np.testing.assert_array_equal(result, a @ b)

    def test_the_floor_is_inclusive(self, rng, gemm_pair_mode):
        a, b = self._operands(rng, 64, 512, 512)  # m k n = 2^24
        submitted = gemm_pair_mode(1)
        np.testing.assert_array_equal(kernel_ops.gemm(a, b), a @ b)
        assert submitted.halves == [(32, 512, 512)]

    def test_a_busy_worker_means_a_serial_product(self, rng, gemm_pair_mode):
        a, b = self._operands(rng, *HALVED[0])
        submitted = gemm_pair_mode(1)
        with kernel_ops._WORKER.busy:  # another thread's pair or split
            result = kernel_ops.gemm(a, b)
        assert submitted.halves == []
        np.testing.assert_array_equal(result, a @ b)

    def test_an_out_that_is_not_the_products_own_rows_is_serial(self, rng, gemm_pair_mode):
        a, b = rng.standard_normal((512, 512)), rng.standard_normal((512, 512))
        expected = a @ b
        submitted = gemm_pair_mode(1)
        kernel_ops.gemm(a, b, out=b)  # numpy buffers an overlapping out
        np.testing.assert_array_equal(b, expected)
        with pytest.raises(ValueError):
            kernel_ops.gemm(a, expected, out=np.empty((514, 512)))
        assert submitted.halves == []

    def test_worker_error_reaches_the_caller(self, rng, gemm_pair_mode, monkeypatch):
        a, b = self._operands(rng, *HALVED[0])
        submitted = gemm_pair_mode(1)
        worker = kernel_ops._WORKER
        counted = worker.submit
        # the worker's half fails (matmul rejects the out shape); the
        # caller's half does not
        monkeypatch.setattr(worker, "submit", lambda a, b, out: counted(a, b, np.empty((3, 3))))
        before = _class_calls_and_flops()
        with pytest.raises(ValueError):
            kernel_ops.gemm(a, b)
        assert len(submitted.halves) == 1
        assert _delta(before, _class_calls_and_flops()) == {}  # nothing recorded
        # the worker is free again and takes the next product
        monkeypatch.setattr(worker, "submit", counted)
        np.testing.assert_array_equal(kernel_ops.gemm(a, b), a @ b)
        assert len(submitted.halves) == 2

    def test_the_worker_keeps_off_the_callers_core(self, rng, gemm_pair_mode):
        import os

        if kernel_ops._cpu_query() is None or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs sched_getcpu, thread affinity and two usable cores")
        a, b = self._operands(rng, *HALVED[0])
        worker = kernel_ops._WORKER
        worker._off_core = None  # as if the caller's core had changed
        gemm_pair_mode(1)
        kernel_ops.gemm(a, b)
        allowed = os.sched_getaffinity(worker._thread.native_id)
        assert worker._off_core is not None and worker._off_core not in allowed
        assert allowed | {worker._off_core} == os.sched_getaffinity(0)

    def test_concurrent_callers_each_get_their_own_products(self, gemm_pair_mode):
        # Four threads at once on two cores, switching often, splitting
        # single products and pairing: one holds the worker, the others
        # run serially, and rows handed to the wrong caller would break
        # the equality.
        import sys
        import threading

        submitted = gemm_pair_mode(1)
        shape = (256, 256, 256)  # 2^24: each product splits, each pairs
        operands = [
            [np.random.default_rng(seed).standard_normal((256, 256)) for _ in range(3)]
            for seed in range(4)
        ]
        expected = [(a @ b, a @ c) for a, b, c in operands]
        mismatches = []

        def caller(i):
            a, b, c = operands[i]
            for _ in range(5):
                single = kernel_ops.gemm(a, b)
                first, second = kernel_ops.gemm_pair(a, b, None, a, c, None)
                if not all(
                    np.array_equal(x, y)
                    for x, y in zip((single, first, second), (*expected[i][:1], *expected[i]))
                ):
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        assert submitted.halves  # the worker ran some of the halves
        assert not kernel_ops._WORKER.busy.locked()


@pytest.mark.usefixtures("blas_one_thread")
class TestOffCoreClosures:
    """The second-core worker also runs closures (the upsert slab
    producer's), each reporting through its own future, and a wide
    product never queues behind one."""

    def test_a_closure_runs_off_the_submitters_core(self):
        import os

        query = kernel_ops._cpu_query()
        if query is None or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs sched_getcpu, thread affinity and two usable cores")
        checked = 0
        for _ in range(20):
            before = query()
            ran_on = kernel_ops.run_off_core(query)
            if query() == before:  # the submitter stayed on one core
                checked += 1
                assert ran_on.result(timeout=30) != before
        assert checked

    def test_a_wide_gemm_never_waits_behind_a_closure(self, rng, gemm_pair_mode):
        import threading

        a, b = rng.standard_normal((512, 512)), rng.standard_normal((512, 256))  # 2^26
        c = rng.standard_normal((512, 256))
        submitted = gemm_pair_mode(1)
        started, release = threading.Event(), threading.Event()
        running = kernel_ops.run_off_core(lambda: (started.set(), release.wait(60)))
        queued = kernel_ops.run_off_core(lambda: "queued")
        results = []

        def caller():
            results.append(kernel_ops.gemm(a, b))
            results.extend(kernel_ops.gemm_pair(a, b, None, a, c, None))

        try:
            assert started.wait(30)
            thread = threading.Thread(target=caller)
            thread.start()
            thread.join(timeout=30)  # a product queued behind the hold would wait 60 s
            assert not thread.is_alive()
        finally:
            release.set()
        assert submitted == [] and submitted.halves == []  # the core was taken
        for got, want in zip(results, (a @ b, a @ b, a @ c)):
            assert got.tobytes() == want.tobytes()
        assert queued.result(timeout=30) == "queued"
        running.result(timeout=30)
        # the closures are done: the worker takes the next half again
        assert kernel_ops.gemm(a, b).tobytes() == (a @ b).tobytes()
        assert submitted.halves == [(256, 512, 256)]

    def test_a_closure_error_reaches_only_its_future(self, rng, gemm_pair_mode):
        a, b = rng.standard_normal((512, 512)), rng.standard_normal((512, 256))

        def fails():
            raise ValueError("slab")

        with pytest.raises(ValueError, match="slab"):
            kernel_ops.run_off_core(fails).result(timeout=30)
        submitted = gemm_pair_mode(1)
        assert kernel_ops.gemm(a, b).tobytes() == (a @ b).tobytes()
        assert submitted.halves == [(256, 512, 256)]

    def test_a_cancelled_closure_frees_the_worker(self, rng, gemm_pair_mode):
        import threading

        release = threading.Event()
        hold = kernel_ops.run_off_core(lambda: release.wait(60))
        dropped = kernel_ops.run_off_core(lambda: "never")
        assert dropped.cancel()
        release.set()
        hold.result(timeout=30)
        assert not kernel_ops._WORKER.closures
        a, b = rng.standard_normal((512, 512)), rng.standard_normal((512, 256))
        submitted = gemm_pair_mode(1)
        assert kernel_ops.gemm(a, b).tobytes() == (a @ b).tobytes()
        assert submitted.halves == [(256, 512, 256)]


class TestGemmAccumulate:
    def test_no_scratch_is_plain_accumulate(self, rng):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((3, 2))
        acc = rng.standard_normal((6, 2))
        expected = acc + a @ b
        returned = kernel_ops.gemm_accumulate(acc, a, b)
        assert returned is acc
        np.testing.assert_array_equal(acc, expected)

    def test_rejects_acc_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="acc shape"):
            kernel_ops.gemm_accumulate(
                np.zeros((5, 2)),
                rng.standard_normal((6, 3)),
                rng.standard_normal((3, 2)),
            )


class TestSpmm:
    @pytest.mark.parametrize("backend", sorted(SPMMS, reverse=True))
    def test_matches_dense_adjacency(self, medium_graph, rng, backend):
        x = rng.standard_normal((medium_graph.num_vertices, 5))
        dense = adjacency_matrix(medium_graph).toarray()
        result = SPMMS[backend](medium_graph, x)
        np.testing.assert_allclose(result, dense @ x, rtol=1e-10)

    def test_adjoint_equals_forward_for_symmetric_graphs(
        self, medium_graph, rng
    ):
        x = rng.standard_normal((medium_graph.num_vertices, 3))
        np.testing.assert_array_equal(
            kernel_ops.spmm_adjoint(medium_graph, x),
            kernel_ops.spmm(medium_graph, x),
        )

    def test_rejects_wrong_row_count(self, triangle_graph, rng):
        with pytest.raises(ValueError, match="vertices"):
            kernel_ops.spmm(triangle_graph, rng.standard_normal((5, 2)))

    def test_rejects_1d_features(self, triangle_graph, rng):
        with pytest.raises(ValueError, match="2-D"):
            kernel_ops.spmm(triangle_graph, rng.standard_normal(3))


class TestGatherScatter:
    def test_gather_segment_sum_weighted(self, rng):
        src = rng.standard_normal((6, 3))
        take = np.array([0, 2, 4, 1, 1])
        indptr = np.array([0, 3, 3, 5])  # middle destination has no edges
        weights = rng.standard_normal(5)
        out = kernel_ops.gather_segment_sum(
            src, take, indptr, 3, weights=weights
        )
        manual = np.zeros((3, 3))
        for dst in range(3):
            for e in range(indptr[dst], indptr[dst + 1]):
                manual[dst] += weights[e] * src[take[e]]
        np.testing.assert_allclose(out, manual)

    def test_scatter_add_is_gather_adjoint(self, rng):
        # <gather(x), y> == <x, scatter(y)> for the unweighted operator.
        src = rng.standard_normal((7, 2))
        take = np.array([0, 3, 3, 6, 2])
        indptr = np.array([0, 2, 5])
        grad = rng.standard_normal((2, 2))
        fwd = kernel_ops.gather_segment_sum(src, take, indptr, 2)
        per_edge = np.repeat(grad, np.diff(indptr), axis=0)
        bwd = kernel_ops.scatter_add_rows(per_edge, take, 7)
        np.testing.assert_allclose(
            float((fwd * grad).sum()), float((src * bwd).sum())
        )

    def test_gather_weights_keep_feature_dtype(self, rng):
        src = rng.standard_normal((4, 2)).astype(np.float32)
        take = np.array([0, 1, 3])
        indptr = np.array([0, 2, 3])
        weights = rng.standard_normal(3)  # float64 on purpose
        out = kernel_ops.gather_segment_sum(
            src, take, indptr, 2, weights=weights
        )
        assert out.dtype == np.float32


def _layout(assignments, num_cells):
    """``(order, ptr)`` of a stable sort by cell, as the k-means step
    builds it."""
    order = np.argsort(assignments, kind="stable")
    ptr = np.concatenate([[0], np.cumsum(np.bincount(assignments, minlength=num_cells))])
    return order, ptr


class TestCellSums:
    @given(
        n=st.integers(1, 300),
        d=st.integers(2, 40),  # one column wide, numpy sums pairwise
        cells=st.integers(1, 40),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    @settings(derandomize=True, max_examples=120, deadline=None)
    def test_bits_of_the_per_cell_sum(self, n, d, cells, dtype, seed):
        # Up to 40 cells over as few as one row: many cells are empty.
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, d)).astype(dtype)
        order, ptr = _layout(rng.integers(0, cells, size=n), cells)
        got = kernel_ops.cell_sums(rows, order, ptr)
        want = np.stack(
            [rows.take(order[ptr[c] : ptr[c + 1]], axis=0).sum(axis=0) for c in range(cells)]
        )
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_empty_cells_sum_to_zero_rows(self, rng):
        rows = rng.standard_normal((5, 3))
        order, ptr = _layout(np.array([2, 0, 2, 2, 0]), 4)
        got = kernel_ops.cell_sums(rows, order, ptr)
        assert got.shape == (4, 3)
        assert np.array_equal(got[1], np.zeros(3)) and np.array_equal(got[3], np.zeros(3))
        assert np.array_equal(got[0], rows[1] + rows[4])

    def test_float32_stays_float32(self, rng):
        rows = rng.standard_normal((50, 4)).astype(np.float32)
        order, ptr = _layout(rng.integers(0, 3, size=50), 3)
        assert kernel_ops.cell_sums(rows, order, ptr).dtype == np.float32

    def test_one_spmm_record_over_n_nonzeros(self, rng):
        rows = rng.standard_normal((64, 7))
        order, ptr = _layout(rng.integers(0, 5, size=64), 5)
        accounting.reset_per_class()
        with accounting.capture() as seen:
            kernel_ops.cell_sums(rows, order, ptr)
        assert (seen.spmm_calls, seen.gemm_calls) == (1, 0)
        assert seen.spmm_flops == accounting.spmm_flop_count(64, 7)
        (key,) = accounting.PER_CLASS
        assert key.startswith("spmm[") and key.endswith("|float64|cells]")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_norms_are_linalg_norm(self, rng, dtype):
        x = rng.standard_normal((30, 257)).astype(dtype)
        x[3] = 0.0
        x[4, 5] = np.nan
        want = np.array([np.linalg.norm(row) for row in x], dtype=dtype)
        got = kernel_ops.row_norms(x)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


class TestElementwise:
    def test_relu_matches_maximum(self, rng):
        x = rng.standard_normal((5, 4))
        np.testing.assert_array_equal(kernel_ops.relu(x), np.maximum(x, 0.0))
        out = np.empty_like(x)
        kernel_ops.relu(x, out=out)
        np.testing.assert_array_equal(out, np.maximum(x, 0.0))

    def test_relu_backward_paths_agree(self, rng):
        # Bit patterns, not values: assert_array_equal treats -0.0 == +0.0,
        # and a masked multiply gives -0.0 where z <= 0 and grad < 0.
        z = np.concatenate([rng.standard_normal((5, 4)), [[-1.0, 2.0, -3.0, 0.0]]])
        g = np.concatenate([rng.standard_normal((5, 4)), [[-5.0, -0.0, 7.0, -1.0]]])
        expected = np.where(z > 0.0, g, 0.0).view(np.int64)
        np.testing.assert_array_equal(
            kernel_ops.relu_backward(z, g).view(np.int64), expected
        )

    def test_add_bias_inplace_and_copy(self, rng):
        z = rng.standard_normal((3, 2))
        b = rng.standard_normal(2)
        buf = z.copy()
        copied = kernel_ops.add_bias(buf, b)
        assert copied is not buf
        np.testing.assert_array_equal(copied, z + b)
        np.testing.assert_array_equal(buf, z)  # the operand is left as it was
