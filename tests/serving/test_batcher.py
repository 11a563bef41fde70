"""Tests for the micro-batching queue."""

from __future__ import annotations

import types

import pytest

from repro.serving.batcher import MicroBatcher


def req(seq, arrival=0.0):
    # The batcher reads `arrival` only; `seq` is for the assertions.
    return types.SimpleNamespace(seq=seq, arrival=arrival)


class TestMicroBatcher:
    def test_take_respects_max_batch(self):
        b = MicroBatcher(max_batch=3, capacity=10)
        for i in range(5):
            assert b.offer(req(i))
        batch = b.take()
        assert [r.seq for r in batch] == [0, 1, 2]
        assert [r.seq for r in b.take()] == [3, 4]
        assert b.take() == []

    def test_offer_sheds_at_capacity(self):
        b = MicroBatcher(max_batch=4, capacity=2)
        assert b.offer(req(0))
        assert b.offer(req(1))
        assert not b.offer(req(2))  # queue full -> shed
        assert len(b) == 2
        assert b.stats.as_dict()["shed"] == 1.0

    def test_full_batch_ready_immediately(self):
        b = MicroBatcher(max_batch=2, max_wait=5.0)
        b.offer(req(0, arrival=1.0))
        b.offer(req(1, arrival=1.5))
        # A full batch does not wait out max_wait.
        assert b.ready_time(busy_until=0.0) == pytest.approx(1.0)

    def test_partial_batch_waits_max_wait(self):
        b = MicroBatcher(max_batch=4, max_wait=0.5)
        b.offer(req(0, arrival=2.0))
        assert b.ready_time(busy_until=0.0) == pytest.approx(2.5)

    def test_busy_server_defers_ready_time(self):
        b = MicroBatcher(max_batch=1, max_wait=0.0)
        b.offer(req(0, arrival=1.0))
        assert b.ready_time(busy_until=3.0) == pytest.approx(3.0)

    def test_ready_time_empty_queue(self):
        b = MicroBatcher(max_batch=2)
        with pytest.raises(ValueError):
            b.ready_time(busy_until=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=2, capacity=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=2, max_wait=-1.0)

    def test_stats_counts_batches(self):
        b = MicroBatcher(max_batch=2)
        for i in range(3):
            b.offer(req(i))
        b.take()
        b.take()
        stats = b.stats.as_dict()
        assert stats["batches"] == 2.0
        assert stats["admitted"] == 3.0
        assert stats["max_batch_seen"] == 2.0
        assert stats["mean_batch_size"] == pytest.approx(1.5)
        assert stats["singleton_batches"] == 1.0
