"""Tests for the generational LRU result cache."""

from __future__ import annotations

import pytest

from repro.serving.cache import GenerationalCache


class TestLRUCache:
    def test_basic_put_get(self):
        cache = GenerationalCache(4)
        cache.put(("q", 10), "value")
        assert cache.get(("q", 10)) == "value"
        assert cache.get(("other", 10)) is None
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = GenerationalCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a" — "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_put_refreshes_recency(self):
        cache = GenerationalCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite refreshes "a"
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 10

    def test_invalidate_clears_and_bumps_generation(self):
        cache = GenerationalCache(4)
        cache.put("a", 1)
        cache.invalidate()
        assert cache.get("a") is None
        assert len(cache) == 0
        cache.put("a", 2)
        assert cache.get("a") == 2

    def test_hit_rate(self):
        cache = GenerationalCache(4)
        assert cache.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("miss")
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            GenerationalCache(0)

    def test_stats_dict(self):
        cache = GenerationalCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["capacity"] == 2


class TestKeyedGenerations:
    def test_group_invalidation_kills_only_stamped_entries(self):
        cache = GenerationalCache(8)
        cache.put("a", 1, groups=(0,))
        cache.put("b", 2, groups=(1,))
        cache.put("c", 3)  # no groups: survives any shard refresh
        cache.invalidate(group=0)
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_multi_group_entry_dies_if_any_group_moves(self):
        cache = GenerationalCache(8)
        cache.put("fanout", "merged", groups=(0, 1, 2))
        cache.invalidate(group=2)
        assert cache.get("fanout") is None

    def test_group_invalidation_is_lazy(self):
        cache = GenerationalCache(8)
        cache.put("a", 1, groups=(0,))
        cache.invalidate(group=0)
        # Entry still occupies a slot until touched.
        assert len(cache) == 1
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_reinsert_after_group_bump_is_fresh(self):
        cache = GenerationalCache(8)
        cache.put("a", 1, groups=(0,))
        cache.invalidate(group=0)
        cache.put("a", 2, groups=(0,))
        assert cache.get("a") == 2

    def test_global_invalidate_still_kills_everything(self):
        cache = GenerationalCache(8)
        cache.put("a", 1, groups=(0,))
        cache.put("b", 2)
        cache.invalidate()
        assert cache.get("a") is None
        assert cache.get("b") is None
        assert len(cache) == 0

    def test_group_generation_counter(self):
        cache = GenerationalCache(4)
        assert cache.group_generation("s0") == 0
        cache.invalidate(group="s0")
        cache.invalidate(group="s0")
        assert cache.group_generation("s0") == 2
        assert cache.group_generation("s1") == 0

    def test_contains_respects_group_generations(self):
        cache = GenerationalCache(4)
        cache.put("a", 1, groups=(0,))
        assert "a" in cache
        cache.invalidate(group=0)
        assert "a" not in cache

    def test_stats_counts_group_invalidations(self):
        cache = GenerationalCache(4)
        cache.invalidate(group=0)
        cache.invalidate()
        stats = cache.stats()
        assert stats["group_invalidations"] == 1.0
        assert stats["invalidations"] == 1.0
