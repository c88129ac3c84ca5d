"""Tests for CacheStats."""

import pytest

from repro.cache import Cache, CacheConfig, CacheStats
from repro.cache.replacement import make_policy
from repro.traces import AccessType

from tests.conftest import load


def count(stats, *hits, misses=()):
    """Bump the per-type counters as ``Cache`` does on each access."""
    for access_type in hits:
        stats.hits[access_type] += 1
    for access_type in misses:
        stats.misses[access_type] += 1


class TestCounters:
    def test_per_type_hits_and_misses(self):
        stats = CacheStats()
        count(stats, AccessType.LOAD, AccessType.PREFETCH,
              misses=[AccessType.RFO])
        assert stats.hits[AccessType.LOAD] == 1
        assert stats.hits[AccessType.PREFETCH] == 1
        assert stats.misses[AccessType.RFO] == 1
        assert stats.total_hits == 2
        assert stats.total_misses == 1
        assert stats.total_accesses == 3

    def test_demand_counts_exclude_prefetch_and_writeback(self):
        stats = CacheStats()
        count(stats, AccessType.LOAD, AccessType.RFO, AccessType.PREFETCH,
              AccessType.WRITEBACK,
              misses=[AccessType.LOAD, AccessType.PREFETCH])
        assert stats.demand_hits == 2
        assert stats.demand_misses == 1
        assert stats.demand_accesses == 3

    def test_compulsory_flag(self):
        # A one-line cache: line 1 evicts line 0, so the second access to
        # line 0 misses too, but only first touches count as compulsory.
        config = CacheConfig("c", 64, 1, latency=1)
        policy = make_policy("lru")
        policy.bind(config)
        cache = Cache(config, policy)
        for line in (0, 1, 0):
            cache.access(load(line))
        assert cache.stats.misses[AccessType.LOAD] == 3
        assert cache.stats.compulsory_misses == 2


class TestRates:
    def test_hit_rate_empty_cache_is_zero(self):
        assert CacheStats().hit_rate == 0.0
        assert CacheStats().demand_hit_rate == 0.0

    def test_hit_rate(self):
        stats = CacheStats()
        count(stats, AccessType.LOAD, misses=[AccessType.LOAD])
        assert stats.hit_rate == pytest.approx(0.5)

    def test_demand_mpki(self):
        stats = CacheStats()
        # The prefetch miss is not a demand miss.
        count(stats, misses=[AccessType.LOAD] * 5 + [AccessType.PREFETCH])
        assert stats.demand_mpki(1000) == pytest.approx(5.0)

    def test_demand_mpki_zero_instructions(self):
        assert CacheStats().demand_mpki(0) == 0.0


class TestReset:
    def test_reset_zeroes_everything(self):
        stats = CacheStats()
        count(stats, AccessType.LOAD, misses=[AccessType.RFO])
        stats.compulsory_misses = 1
        stats.evictions = 3
        stats.dirty_evictions = 2
        stats.bypasses = 1
        stats.reset()
        assert stats.total_accesses == 0
        assert stats.evictions == 0
        assert stats.dirty_evictions == 0
        assert stats.bypasses == 0
        assert stats.compulsory_misses == 0

    def test_summary_keys(self):
        summary = CacheStats().summary()
        for key in ("accesses", "hits", "misses", "hit_rate", "demand_hits",
                    "demand_misses", "evictions", "bypasses"):
            assert key in summary
