"""Tests for cache descriptors and the trace-based LRU simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineConfigError
from repro.machine import CacheHierarchy, CacheLevel, SetAssociativeCache
from repro.units import KiB


def small_cache(capacity=1 * KiB, line=64, ways=2):
    return CacheLevel(
        name="t",
        capacity_bytes=capacity,
        line_bytes=line,
        associativity=ways,
        bytes_per_cycle_per_core=64,
    )


class TestCacheLevel:
    def test_geometry(self):
        lvl = small_cache()
        assert lvl.num_lines == 16
        assert lvl.num_sets == 8

    def test_rejects_bad_geometry(self):
        with pytest.raises(MachineConfigError):
            small_cache(capacity=1000)  # not multiple of line
        with pytest.raises(MachineConfigError):
            small_cache(ways=3)  # 16 lines not divisible by 3

    def test_effective_capacity_private(self):
        lvl = small_cache()
        assert lvl.effective_capacity(12) == lvl.capacity_bytes

    def test_effective_capacity_shared(self):
        lvl = CacheLevel("L2", 8 * KiB, 64, 4, 64, shared_by_cores=4)
        assert lvl.effective_capacity(1) == 8 * KiB
        assert lvl.effective_capacity(2) == 4 * KiB
        assert lvl.effective_capacity(100) == 2 * KiB


class TestLRUSimulator:
    def test_cold_miss_then_hit(self):
        c = SetAssociativeCache(small_cache())
        assert not c.access(0)
        assert c.access(0)
        assert c.access(63)  # same line
        assert not c.access(64)  # next line

    def test_lru_eviction(self):
        # 2-way sets; three lines mapping to the same set evict the LRU.
        c = SetAssociativeCache(small_cache())
        sets = c.level.num_sets
        stride = sets * 64  # same set index each time
        c.access(0 * stride)
        c.access(1 * stride)
        c.access(0 * stride)  # refresh line 0
        c.access(2 * stride)  # evicts line 1 (LRU)
        assert c.access(0 * stride)
        assert not c.access(1 * stride)
        assert c.stats.evictions >= 1

    def test_stats_accounting(self):
        c = SetAssociativeCache(small_cache())
        for _ in range(3):
            c.access(128)
        assert c.stats.accesses == 3
        assert c.stats.hits == 2
        assert c.stats.misses == 1
        assert c.stats.hit_rate == pytest.approx(2 / 3)

    def test_access_range_counts_line_misses(self):
        c = SetAssociativeCache(small_cache())
        assert c.access_range(0, 256) == 4  # four 64B lines
        assert c.access_range(0, 256) == 0

    def test_contains_non_mutating(self):
        c = SetAssociativeCache(small_cache())
        c.access(0)
        before = c.stats.accesses
        assert c.contains(32)
        assert c.stats.accesses == before

    def test_flush(self):
        c = SetAssociativeCache(small_cache())
        c.access(0)
        c.flush()
        assert not c.contains(0)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(small_cache()).access(-1)

    def test_streaming_larger_than_cache_all_miss(self):
        c = SetAssociativeCache(small_cache())
        n_lines = 4 * c.level.num_lines
        for i in range(n_lines):
            assert not c.access(i * 64)

    def test_working_set_fitting_all_hits_second_pass(self):
        c = SetAssociativeCache(small_cache())
        lines = c.level.num_lines // 2  # comfortably fits
        for i in range(lines):
            c.access(i * 64)
        for i in range(lines):
            assert c.access(i * 64)

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, addresses):
        c = SetAssociativeCache(small_cache())
        for a in addresses:
            c.access(a)
        assert c.stats.hits + c.stats.misses == c.stats.accesses

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 4095), min_size=1, max_size=100))
    def test_immediate_repeat_always_hits(self, addresses):
        c = SetAssociativeCache(small_cache())
        for a in addresses:
            c.access(a)
            assert c.access(a)

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=150))
    def test_occupancy_never_exceeds_geometry(self, addresses):
        c = SetAssociativeCache(small_cache())
        for a in addresses:
            c.access(a)
        for ways in c._sets:
            assert len(ways) <= c.level.associativity


class TestHierarchy:
    def _hier(self):
        l1 = small_cache(capacity=512, ways=2)
        l2 = small_cache(capacity=4 * KiB, ways=4)
        return CacheHierarchy([l1, l2])

    def test_miss_cascades(self):
        h = self._hier()
        assert h.access(0) == 2  # memory
        assert h.access(0) == 0  # L1

    def test_l2_catches_l1_evictions(self):
        h = self._hier()
        l1_lines = h.caches[0].level.num_lines
        # touch 2x L1 capacity (fits L2)
        for i in range(2 * l1_lines):
            h.access(i * 64)
        # the first lines were evicted from L1 but still sit in L2
        level = h.access(0)
        assert level == 1

    def test_rejects_shrinking_hierarchy(self):
        with pytest.raises(MachineConfigError):
            CacheHierarchy([small_cache(capacity=4 * KiB, ways=4), small_cache(capacity=512)])

    def test_rejects_mixed_line_sizes(self):
        with pytest.raises(MachineConfigError):
            CacheHierarchy([small_cache(), small_cache(capacity=4 * KiB, line=128, ways=4)])

    def test_flush(self):
        h = self._hier()
        h.access(0)
        h.flush()
        assert h.access(0) == 2
