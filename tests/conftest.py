"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    CSRGraph,
    DCSBMParams,
    dcsbm_graph,
    edges_to_csr,
    grid_graph,
    make_dataset,
    ring_of_cliques,
)


@pytest.fixture(autouse=True)
def _flight_dumps_to_tmp(tmp_path):
    """Keep breach-triggered flight dumps out of the repo root.

    The process-wide flight recorder defaults its dump directory to the
    cwd; any test that evaluates a breaching SLO rule would otherwise
    litter ``OBS_flightdump_*.json`` next to the sources.
    """
    from repro.obs.flight import get_flight_recorder

    recorder = get_flight_recorder()
    prev = recorder.out_dir
    recorder.out_dir = tmp_path
    yield
    recorder.out_dir = prev


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def triangle_graph() -> CSRGraph:
    """K3: the smallest graph with a triangle."""
    return edges_to_csr(np.array([[0, 1], [1, 2], [0, 2]]), 3)


@pytest.fixture
def path_graph() -> CSRGraph:
    """P4: 0-1-2-3."""
    return edges_to_csr(np.array([[0, 1], [1, 2], [2, 3]]), 4)


@pytest.fixture
def star_graph() -> CSRGraph:
    """Star with center 0 and 5 leaves."""
    edges = np.array([[0, i] for i in range(1, 6)])
    return edges_to_csr(edges, 6)


@pytest.fixture
def clique_ring() -> CSRGraph:
    return ring_of_cliques(4, 5)


@pytest.fixture
def grid5() -> CSRGraph:
    return grid_graph(5, 5)


@pytest.fixture(scope="session")
def medium_graph() -> CSRGraph:
    """A ~800-vertex power-law community graph (session-cached)."""
    params = DCSBMParams(
        num_vertices=800, num_blocks=8, avg_degree=12.0, exponent=2.5, mixing=0.2
    )
    graph, _ = dcsbm_graph(params, rng=np.random.default_rng(7))
    return graph


@pytest.fixture(scope="session")
def ppi_small():
    """A small PPI-profile dataset (session-cached, ~590 vertices)."""
    return make_dataset("ppi", scale=0.04, seed=11)


@pytest.fixture(scope="session")
def reddit_small():
    """A small Reddit-profile dataset (session-cached, ~1160 vertices)."""
    return make_dataset("reddit", scale=0.005, seed=11)


class _Submissions(list):
    """The pair products :func:`repro.kernels.ops.gemm_pair` handed to the
    worker thread, as ``(m, k, n)``; ``halves`` the row halves a split
    :func:`repro.kernels.ops.gemm` handed to it, one per split product."""

    def __init__(self) -> None:
        super().__init__()
        self.halves: list[tuple[int, ...]] = []

    def clear(self) -> None:
        super().clear()
        self.halves.clear()


@pytest.fixture
def gemm_pair_mode(monkeypatch):
    """Puts :func:`repro.kernels.ops.gemm_pair` and
    :func:`repro.kernels.ops.gemm` in a given regime.

    ``gemm_pair_mode(threads, cores)`` makes the BLAS thread-count probe
    read ``threads`` and the process see ``cores`` usable cores; the
    returned list gains one entry per pair product handed to the worker
    thread, and its ``halves`` one per row half of a split ``gemm`` (told
    apart by the function that submits). ``gemm_pair_mode(1, 2)`` is a
    pinned two-core host, where a pair or a product above the flop floor
    runs concurrently.
    """
    import sys

    from repro.kernels import ops

    submitted = _Submissions()
    worker = ops._WORKER
    real_submit = worker.submit

    def counted_submit(a, b, out):
        shape = (a.shape[0], a.shape[1], b.shape[1])
        from_pair = sys._getframe(1).f_code.co_name == "gemm_pair"
        (submitted if from_pair else submitted.halves).append(shape)
        real_submit(a, b, out)

    monkeypatch.setattr(worker, "submit", counted_submit)

    def set_mode(threads, cores=2):
        monkeypatch.setattr(ops, "blas_threads", lambda: threads)
        monkeypatch.setattr(ops, "_usable_cores", lambda: cores)
        submitted.clear()
        return submitted

    return set_mode


@pytest.fixture
def blas_one_thread():
    """OpenBLAS runs one thread per call for the test, then what it ran
    before: set through the library's own ``set_num_threads`` (looked up
    like :func:`repro.kernels.ops.blas_threads`'s query), so a case pinned
    to the single-threaded kernel holds whatever ``OPENBLAS_NUM_THREADS``
    the suite runs under. Skips where the library cannot be set."""
    import ctypes

    from repro.kernels import ops

    query = ops._blas_thread_query()
    try:
        from numpy._core import _multiarray_umath as umath

        set_threads = ctypes.CDLL(umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        set_threads = None
    if query is None or set_threads is None:
        pytest.skip("the BLAS library's thread count cannot be set")
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    before = query()
    set_threads(1)
    yield
    set_threads(before)
