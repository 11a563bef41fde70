"""Streaming slab producer: schedule, determinism against a sequential
oracle, and the worker thread's lifecycle."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.kernels.ops import run_off_core
from repro.obs import metrics as obs_metrics
from repro.serving.upsert import SlabUpsertProducer, UpsertSlab, drift_refresh


def _setup(n=40, d=4, shards=4, seed=0):
    rng = np.random.default_rng(seed)
    emb = rng.standard_normal((n, d))
    assignment = rng.integers(0, shards, size=n)
    assignment[:shards] = np.arange(shards)  # every shard non-empty
    return emb, assignment


class TestSchedule:
    def test_round_robin_staggered(self):
        emb, assignment = _setup()
        with SlabUpsertProducer(
            emb, assignment, start=1.0, interval=0.5, rounds=2
        ) as prod:
            assert prod.total == 8
            slabs = prod.pending(now=100.0)
        assert [s.shard for s in slabs] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert [s.round for s in slabs] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [s.produced_at for s in slabs] == [
            1.0 + 0.5 * j for j in range(8)
        ]

    def test_pending_pops_only_due_slabs(self):
        emb, assignment = _setup()
        prod = SlabUpsertProducer(emb, assignment, interval=1.0, rounds=1)
        assert prod.peek_time() == 0.0
        first = prod.pending(now=1.5)  # slabs at t=0 and t=1
        assert [s.shard for s in first] == [0, 1]
        assert prod.peek_time() == 2.0
        assert prod.pending(now=1.99) == []
        rest = prod.pending(now=10.0)
        assert [s.shard for s in rest] == [2, 3]
        assert prod.peek_time() is None
        assert prod.pending(now=1e9) == []

    def test_slab_members_match_assignment(self):
        emb, assignment = _setup()
        prod = SlabUpsertProducer(emb, assignment, rounds=1)
        for slab in prod.pending(now=1e9):
            assert isinstance(slab, UpsertSlab)
            assert np.all(assignment[slab.vertex_ids] == slab.shard)
            assert slab.vectors.shape == (len(slab.vertex_ids), emb.shape[1])


class TestDeterminism:
    def test_same_seed_same_slabs(self):
        emb, assignment = _setup()
        a = SlabUpsertProducer(emb, assignment, rounds=3, seed=7)
        b = SlabUpsertProducer(emb, assignment, rounds=3, seed=7)
        for sa, sb in zip(a.pending(1e9), b.pending(1e9)):
            assert np.array_equal(sa.vectors, sb.vectors)

    def test_different_seed_different_slabs(self):
        emb, assignment = _setup()
        a = SlabUpsertProducer(emb, assignment, rounds=1, seed=0)
        b = SlabUpsertProducer(emb, assignment, rounds=1, seed=1)
        assert not np.array_equal(
            a.pending(1e9)[0].vectors, b.pending(1e9)[0].vectors
        )

    def test_slabs_match_a_sequential_oracle_bit_for_bit(self):
        """Slab ``j`` is ``current + 0.01 * noise_j``, ``noise_j`` drawn
        from the ``j``-th child of the seed, ``current`` carried round over
        round — whatever the worker thread's timing (switched as often as
        the interpreter allows)."""
        emb, assignment = _setup()
        rounds, seed = 3, 5
        total = rounds * 4
        streams = np.random.SeedSequence(seed).spawn(total)
        current = emb.copy()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SlabUpsertProducer(emb, assignment, rounds=rounds, seed=seed) as prod:
                slabs = [s for t in range(total) for s in prod.pending(float(t))]
        finally:
            sys.setswitchinterval(interval)
        assert len(slabs) == total
        for j, slab in enumerate(slabs):
            members = np.flatnonzero(assignment == j % 4)
            noise = np.random.default_rng(streams[j]).standard_normal((len(members), 4))
            current[members] = current[members] + 0.01 * noise
            assert slab.shard == j % 4
            assert np.array_equal(slab.vertex_ids, members)
            assert slab.vectors.tobytes() == current[members].tobytes()

    def test_rounds_compound_on_current_state(self):
        """Round r+1 drifts from round r's output, not the original."""
        emb, assignment = _setup()
        prod = SlabUpsertProducer(emb, assignment, rounds=2, seed=3)
        slabs = prod.pending(1e9)
        first = {s.shard: s.vectors for s in slabs if s.round == 0}
        second = {s.shard: s.vectors for s in slabs if s.round == 1}
        for shard in first:
            assert not np.array_equal(first[shard], second[shard])


class TestRefreshFn:
    def test_drift_refresh_is_small_perturbation(self):
        rows = np.ones((5, 3))
        out = drift_refresh(scale=0.01)(
            0, 0, rows, np.random.default_rng(0)
        )
        assert out.shape == rows.shape
        assert 0 < np.abs(out - rows).max() < 0.1

    def test_custom_refresh_fn_used(self):
        emb, assignment = _setup()
        calls = []

        def refresh(shard, rnd, rows, rng):
            calls.append((shard, rnd))
            return rows * 2.0

        prod = SlabUpsertProducer(
            emb, assignment, rounds=1, refresh_fn=refresh
        )
        slabs = prod.pending(1e9)
        assert calls == [(0, 0), (1, 0), (2, 0), (3, 0)]
        for slab in slabs:
            assert np.array_equal(slab.vectors, 2.0 * emb[slab.vertex_ids])


class TestValidation:
    def test_bad_parameters_raise(self):
        emb, assignment = _setup()
        with pytest.raises(ValueError):
            SlabUpsertProducer(emb, assignment, interval=0.0)
        with pytest.raises(ValueError):
            SlabUpsertProducer(emb, assignment, rounds=0)
        with pytest.raises(ValueError):
            SlabUpsertProducer(emb, assignment[:-1])

    def test_close_is_idempotent(self):
        emb, assignment = _setup()
        prod = SlabUpsertProducer(emb, assignment)
        prod.peek_time()
        prod.close()
        prod.close()


def _drain_worker() -> None:
    """Wait until every closure submitted so far has run: the second-core
    worker runs closures in submission order."""
    run_off_core(lambda: None).result(timeout=30)


class TestWorkerLifecycle:
    """Slabs run on the process's one second-core worker, at most two
    ahead of the replay, from the first peek until the last slab or
    ``close()``."""

    def _counting(self, rounds=3):
        emb, assignment = _setup()
        calls = []
        refresh = drift_refresh()

        def counted(shard, rnd, rows, rng):
            calls.append((shard, rnd))
            return refresh(shard, rnd, rows, rng)

        prod = SlabUpsertProducer(emb, assignment, rounds=rounds, refresh_fn=counted)
        return prod, calls

    def test_nothing_runs_before_the_first_peek(self):
        prod, calls = self._counting()
        _drain_worker()
        assert calls == []
        assert prod.peek_time() == 0.0
        _drain_worker()
        assert len(calls) == 2  # the first two slabs, computed ahead
        prod.close()

    def test_at_most_two_slabs_ahead(self):
        prod, calls = self._counting()
        for handed_out in range(1, prod.total + 1):
            assert len(prod.pending(float(handed_out - 1))) == 1
            _drain_worker()
            assert len(calls) == min(handed_out + 2, prod.total)
        assert prod.peek_time() is None

    def test_close_drops_the_slabs_not_started(self):
        prod, calls = self._counting()
        started, release = threading.Event(), threading.Event()
        run_off_core(lambda: (started.set(), release.wait(30)))  # holds the worker
        try:
            assert started.wait(30)
            assert prod.peek_time() == 0.0  # two slabs queued behind the hold
            prod.close()
        finally:
            release.set()
        _drain_worker()
        assert calls == []
        assert prod.peek_time() is None
        assert prod.pending(1e9) == []

    def test_no_refresh_after_close_mid_stream(self):
        prod, calls = self._counting()
        assert len(prod.pending(1.0)) == 2
        prod.close()  # waits for a slab already running
        ran = len(calls)
        _drain_worker()
        assert len(calls) == ran <= 4  # two handed out, at most two ahead
        assert prod.pending(1e9) == []

    def test_no_thread_per_producer(self):
        prod, _ = self._counting(rounds=1)
        prod.pending(1e9)  # the worker has started
        before = set(threading.enumerate())
        for seed in range(3):
            emb, assignment = _setup(seed=seed)
            with SlabUpsertProducer(emb, assignment, rounds=2, seed=seed) as other:
                assert len(other.pending(1e9)) == other.total
        assert set(threading.enumerate()) <= before


class TestObs:
    @pytest.mark.parametrize("one_due_at_a_time", [False, True])
    def test_produce_seconds_observed_per_slab(self, one_due_at_a_time):
        """One observation per slab, whether the stream is drained in one
        call or popped slab by slab as each falls due."""
        emb, assign = _setup()
        with obs.enabled():
            obs_metrics.reset()
            with SlabUpsertProducer(emb, assign, rounds=2) as prod:
                if one_due_at_a_time:
                    slabs = [s for t in range(prod.total) for s in prod.pending(float(t))]
                else:
                    slabs = prod.pending(1e9)
                assert len(slabs) == prod.total
            hist = obs_metrics.snapshot()["histograms"]["upsert.produce_seconds"]
        assert hist["count"] == prod.total
        assert 0.0 < hist["p50"] <= hist["max"] < 1.0

    def test_nothing_recorded_while_obs_is_off(self):
        emb, assign = _setup()
        obs_metrics.reset()
        SlabUpsertProducer(emb, assign, rounds=2).pending(1e9)
        assert not obs_metrics.snapshot()["histograms"]
