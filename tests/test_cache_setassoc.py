"""Set-associative cache: geometry, LRU behaviour, counters."""

import numpy as np
import pytest

from repro.cache import SetAssociativeCache
from tests.cache_oracles import cache_access


def _resident(cache, address: int) -> bool:
    """Whether the line holding ``address`` is resident (no LRU update)."""
    return address // cache.line_bytes in cache.resident.tolist()


class TestGeometry:
    def test_basic(self):
        c = SetAssociativeCache(32 * 1024, line_bytes=64, associativity=8)
        assert c.n_sets == 64
        assert c.resident.size == 0

    def test_non_pow2_line_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, line_bytes=48)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(256, line_bytes=64, associativity=8)

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(3 * 64 * 8, line_bytes=64, associativity=8)

    def test_fully_associative_single_set(self):
        c = SetAssociativeCache(64 * 16, line_bytes=64, associativity=16)
        assert c.n_sets == 1


class TestHitsAndMisses:
    def test_cold_miss_then_hit(self):
        c = SetAssociativeCache(1024, line_bytes=64, associativity=2)
        # cold miss, hit, same line, next line
        assert cache_access(c, [0, 0, 63, 64]) == [False, True, True, False]

    def test_counters(self):
        c = SetAssociativeCache(1024, line_bytes=64, associativity=2)
        cache_access(c, [0, 0, 64, 0])
        assert c.stats.accesses == 4
        assert c.stats.hits == 2
        assert c.stats.misses == 2
        assert c.stats.miss_rate == 0.5
        assert c.stats.hit_rate == 0.5

    def test_working_set_within_capacity_all_hits_after_warmup(self):
        c = SetAssociativeCache(4096, line_bytes=64, associativity=8)
        addrs = np.arange(0, 4096, 64)
        c.access_many(addrs)          # warm-up: all cold misses
        misses = c.access_many(addrs)  # resident now
        assert misses == 0

    def test_working_set_over_capacity_thrashes(self):
        c = SetAssociativeCache(4096, line_bytes=64, associativity=8)
        addrs = np.arange(0, 16384, 64)  # 4x capacity, cyclic
        c.access_many(addrs)
        misses = c.access_many(addrs)
        assert misses == len(addrs)  # LRU + cyclic sweep = all misses

    def test_access_many_returns_added_misses(self):
        c = SetAssociativeCache(1024, line_bytes=64, associativity=2)
        assert c.access_many([0, 64, 128]) == 3
        assert c.access_many([0, 64, 128]) == 0


class TestLRU:
    def test_lru_eviction_order(self):
        # one set: capacity 2 lines
        c = SetAssociativeCache(128, line_bytes=64, associativity=2)
        # line A, line B (A is LRU), touch A (B is LRU), evicts B
        cache_access(c, [0, 64, 0, 128])
        assert _resident(c, 0)
        assert not _resident(c, 64)
        assert _resident(c, 128)

    def test_conflict_misses_within_set(self):
        """Addresses mapping to one set thrash even under capacity."""
        c = SetAssociativeCache(8192, line_bytes=64, associativity=2)
        stride = c.n_sets * 64  # same set index every time
        c.access_many([i * stride for i in range(4)])
        misses = c.access_many([i * stride for i in range(4)])
        assert misses == 4  # only 2 ways for 4 hot lines

    def test_contains_does_not_touch_lru(self):
        c = SetAssociativeCache(128, line_bytes=64, associativity=2)
        cache_access(c, [0, 64])
        _resident(c, 0)            # must NOT promote line A
        cache_access(c, [128])     # evicts A (still LRU)
        assert not _resident(c, 0)


class TestMaintenance:
    def test_flush_keeps_counters(self):
        """Emptying ``resident`` invalidates every line; counters stay."""
        c = SetAssociativeCache(1024, line_bytes=64, associativity=2)
        cache_access(c, [0])
        c.resident = c.resident[:0]
        assert c.stats.accesses == 1
        assert c.resident.size == 0
        assert cache_access(c, [0]) == [False]

    def test_reset_clears_everything(self):
        c = SetAssociativeCache(1024, line_bytes=64, associativity=2)
        cache_access(c, [0])
        c.reset()
        assert c.stats.accesses == 0
        assert c.resident.size == 0
