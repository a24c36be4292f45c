"""Tests for the bounded LRU memo tables (repro.engine.cache)."""

import pytest

from repro.engine import CacheStats, LRUCache


class TestCacheStats:
    def test_hit_rate_of_fresh_stats_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)


class TestLRUCache:
    def test_get_counts_hits_and_misses(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_falsy_values_are_cache_hits(self):
        # The deduction verdict cache stores False; it must read back as a hit.
        cache = LRUCache(maxsize=4)
        cache.put("verdict", False)
        assert cache.get("verdict") is False
        assert cache.stats.hits == 1

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.stats.evictions == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_unbounded_cache_never_evicts(self):
        cache = LRUCache(maxsize=None)
        for index in range(1000):
            cache.put(index, index)
        assert len(cache) == 1000
        assert cache.stats.evictions == 0

    def test_zero_maxsize_disables_storage_but_counts_misses(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)

    def test_clear_keeps_counters(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert "a" not in cache
        assert cache.stats.hits == 1
