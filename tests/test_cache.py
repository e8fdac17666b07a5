"""Property tests for the LRU buffer pool (repro.parallel.cache)."""

import numpy as np
import pytest

from repro.core import NearOptimalDeclusterer
from repro.parallel.cache import BufferPool, LRUCache
from repro.parallel.engine import SequentialEngine
from repro.parallel.paged import PagedEngine, PagedStore


class TestLRUCacheEvictionOrder:
    def test_least_recent_evicted_first(self):
        cache = LRUCache(3)
        for key in "abc":
            assert not cache.access(key)
        assert cache.access("a")          # a becomes most recent
        assert not cache.access("d")      # evicts b (the LRU entry)
        assert cache.keys() == ["c", "a", "d"]
        assert not cache.access("b")      # b was evicted -> miss
        assert cache.evictions == 2

    def test_hit_refreshes_recency(self):
        cache = LRUCache(2)
        cache.access("a")
        cache.access("b")
        cache.access("a")
        cache.access("c")                 # evicts b, not a
        assert "a" in cache and "c" in cache and "b" not in cache


class TestLRUCacheEdgeCapacities:
    def test_capacity_zero_never_hits(self):
        cache = LRUCache(0)
        for _ in range(3):
            assert not cache.access("a")
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 3
        assert cache.evictions == 0

    def test_capacity_one_holds_last_key_only(self):
        cache = LRUCache(1)
        assert not cache.access("a")
        assert cache.access("a")
        assert not cache.access("b")      # evicts a
        assert len(cache) == 1
        assert not cache.access("a")      # alternating always misses
        assert not cache.access("b")

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestLRUCacheWeights:
    def test_supernode_weight_occupies_pages(self):
        cache = LRUCache(4)
        cache.access("super", weight=3)
        cache.access("a")
        assert cache.used_pages == 4
        cache.access("b")                 # must evict "super" (3 pages)
        assert "super" not in cache
        assert cache.used_pages == 2

    def test_oversized_entry_bypasses(self):
        cache = LRUCache(2)
        cache.access("a")
        assert not cache.access("huge", weight=3)
        assert "huge" not in cache
        assert "a" in cache               # residents are not evicted for it

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(4).access("a", weight=0)


class TestLRUHitRatioMonotonicity:
    def test_hit_ratio_nondecreasing_in_capacity(self):
        """LRU is a stack algorithm: on a fixed unit-weight trace, a
        bigger cache can only hit more (inclusion property)."""
        rng = np.random.default_rng(42)
        # Zipf-flavored trace over 60 keys: heavy hitters plus a tail.
        trace = rng.zipf(1.3, 2000) % 60
        previous_hits = -1
        for capacity in (0, 1, 2, 4, 8, 16, 32, 64, 128):
            cache = LRUCache(capacity)
            for key in trace:
                cache.access(int(key))
            assert cache.hits >= previous_hits
            previous_hits = cache.hits

    def test_reset_restores_cold_state(self):
        cache = LRUCache(8)
        for key in range(20):
            cache.access(key % 5)
        cache.reset()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        assert not cache.access(0)        # cold again


class TestBufferPool:
    def test_shared_policy_one_pool(self):
        pool = BufferPool(2, 2)
        assert not pool.access(0, "x")
        assert not pool.access(1, "y")
        assert not pool.access(0, "z")    # evicts (0, "x") from shared LRU
        assert not pool.access(0, "x")
        stats = pool.stats()
        assert stats.hits == 0 and stats.misses == 4
        assert list(stats.misses_per_disk) == [3, 1]

    def test_same_key_distinct_per_disk(self):
        pool = BufferPool(2, 8)
        pool.access(0, "page")
        assert not pool.access(1, "page")  # other disk's copy is separate
        assert pool.access(0, "page")

    def test_stats_delta(self):
        pool = BufferPool(2, 8)
        pool.access(0, "a")
        before = pool.stats()
        pool.access(0, "a")
        pool.access(1, "b")
        delta = pool.delta_since(before)
        assert delta.hits == 1
        assert delta.misses == 1
        assert list(delta.hits_per_disk) == [1, 0]
        assert list(delta.misses_per_disk) == [0, 1]
        assert delta.hit_ratio == 0.5

    def test_hit_ratio_empty_pool(self):
        assert BufferPool(1, 0).stats().hit_ratio == 0.0

    def test_reset_clears_all_disks(self):
        pool = BufferPool(3, 4)
        for disk in range(3):
            pool.access(disk, "k")
        pool.reset()
        stats = pool.stats()
        assert stats.accesses == 0
        assert not pool.access(0, "k")

    def test_invalid_disk_rejected(self):
        pool = BufferPool(2, 4)
        with pytest.raises(ValueError):
            pool.access(2, "k")


class TestEngineCacheArgument:
    """An engine's ``cache`` is an optional page count."""

    @staticmethod
    def points():
        return np.random.default_rng(7).random((300, 4))

    def test_none_means_no_pool(self):
        engine = SequentialEngine(self.points())
        assert engine.cache is None
        assert engine.query(np.full(4, 0.5), 3).cache_stats is None

    def test_page_count_builds_one_shared_pool(self):
        store = PagedStore(self.points(), NearOptimalDeclusterer(4, 4))
        pool = PagedEngine(store, cache=64).cache
        assert pool.capacity_pages == 64
        assert pool.num_disks == 4

    def test_zero_pool_counts_misses_never_hits(self):
        engine = SequentialEngine(self.points(), cache=0)
        assert engine.cache is not None
        query = np.full(4, 0.5)
        for _ in range(2):
            stats = engine.query(query, 3).cache_stats
            assert stats.hits == 0
            assert stats.misses > 0
        assert engine.cache.stats().hits == 0
