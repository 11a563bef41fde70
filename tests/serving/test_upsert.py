"""Streaming slab producer: schedule, determinism, prefetch equivalence."""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
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
        assert prod.remaining == 4
        first = prod.pending(now=1.5)  # slabs at t=0 and t=1
        assert [s.shard for s in first] == [0, 1]
        assert prod.remaining == 2
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

    def test_prefetch_thread_changes_nothing(self):
        emb, assignment = _setup()
        sync = SlabUpsertProducer(emb, assignment, rounds=3, seed=5)
        with SlabUpsertProducer(
            emb, assignment, rounds=3, seed=5, prefetch=True, depth=3
        ) as ahead:
            for sa, sb in zip(sync.pending(1e9), ahead.pending(1e9)):
                assert sa.shard == sb.shard
                assert sa.produced_at == sb.produced_at
                assert np.array_equal(sa.vectors, sb.vectors)

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
            SlabUpsertProducer(emb, assignment, prefetch=True, depth=0)
        with pytest.raises(ValueError):
            SlabUpsertProducer(emb, assignment[:-1])

    def test_close_is_idempotent(self):
        emb, assignment = _setup()
        prod = SlabUpsertProducer(emb, assignment, prefetch=True)
        prod.close()
        prod.close()


class TestObs:
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_produce_seconds_observed_per_slab(self, prefetch):
        emb, assign = _setup()
        with obs.enabled():
            obs_metrics.reset()
            with SlabUpsertProducer(emb, assign, rounds=2, prefetch=prefetch) as prod:
                assert len(prod.pending(1e9)) == prod.total
            hist = obs_metrics.snapshot()["histograms"]["upsert.produce_seconds"]
        assert hist["count"] == prod.total
        assert 0.0 < hist["p50"] <= hist["max"] < 1.0

    def test_nothing_recorded_while_obs_is_off(self):
        emb, assign = _setup()
        obs_metrics.reset()
        SlabUpsertProducer(emb, assign, rounds=2).pending(1e9)
        assert not obs_metrics.snapshot()["histograms"]
