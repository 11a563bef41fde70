"""Generational LRU result cache for the embedding servers.

Serving traffic is heavily skewed — the Amazon profile's power-law degree
distribution translates into a power-law query popularity under any
degree-correlated workload — so a small exact-result cache absorbs a
large fraction of requests. Entries are keyed on ``(query_id, k)`` and
carry the embedding *generation(s)* they were computed against:
refreshing the embedding matrix bumps a generation counter, which
invalidates every stale entry without an O(capacity) sweep.

Two granularities of invalidation:

* **global** — ``invalidate()`` bumps the cache-wide generation (a full
  embedding swap on the single-node server);
* **keyed / per-shard** — ``put(key, value, groups=(shard,))`` stamps an
  entry with the generation of every *group* (shard) that contributed to
  it, and ``invalidate(group=shard)`` bumps only that group's counter.
  A streaming upsert into one shard then kills exactly the cached
  results that touched that shard — the rest of the cache survives.

Stale entries are dropped lazily on touch, so both invalidation paths
stay O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable

__all__ = ["GenerationalCache"]


class GenerationalCache:
    """Bounded LRU map with global and per-group generation stamps."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # key -> (global_gen, ((group, group_gen), ...), value)
        self._data: OrderedDict[
            Hashable, tuple[int, tuple[tuple[Hashable, int], ...], object]
        ] = OrderedDict()
        self.generation = 0
        self._group_gens: dict[Hashable, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.group_invalidations = 0

    def __len__(self) -> int:
        return len(self._data)

    def group_generation(self, group: Hashable) -> int:
        """Current generation of ``group`` (0 before any invalidation)."""
        return self._group_gens.get(group, 0)

    def _is_fresh(
        self, entry: tuple[int, tuple[tuple[Hashable, int], ...], object]
    ) -> bool:
        gen, groups, _ = entry
        if gen != self.generation:
            return False
        return all(self._group_gens.get(g, 0) == g_gen for g, g_gen in groups)

    def __contains__(self, key: Hashable) -> bool:
        entry = self._data.get(key)
        return entry is not None and self._is_fresh(entry)

    def get(self, key: Hashable) -> object | None:
        """Return the cached value (refreshing recency) or ``None``.

        Entries written against an older generation — global or of any
        group they were stamped with — count as misses and are dropped
        on touch.
        """
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not self._is_fresh(entry):
            del self._data[key]
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return entry[2]

    def put(
        self,
        key: Hashable,
        value: object,
        *,
        groups: Iterable[Hashable] = (),
    ) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full.

        ``groups`` names the shards (or any other invalidation domains)
        the value was computed from; the entry dies when any of their
        generations moves.
        """
        if key in self._data:
            self._data.move_to_end(key)
        stamp = tuple([(g, self._group_gens.get(g, 0)) for g in groups])
        self._data[key] = (self.generation, stamp, value)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def invalidate(self, group: Hashable | None = None) -> None:
        """Invalidate cached results: O(1) generation bump.

        With no argument, every entry dies (full embedding refresh) and
        the map is cleared eagerly so the capacity is available to fresh
        results immediately. With ``group``, only entries stamped with
        that group die — lazily, on next touch — and everything else
        keeps serving.
        """
        if group is None:
            self.generation += 1
            self.invalidations += 1
            self._data.clear()
        else:
            self._group_gens[group] = self.group_generation(group) + 1
            self.group_invalidations += 1

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Counters snapshot for the metrics report."""
        return {
            "size": float(len(self._data)),
            "capacity": float(self.capacity),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "evictions": float(self.evictions),
            "invalidations": float(self.invalidations),
            "group_invalidations": float(self.group_invalidations),
        }
