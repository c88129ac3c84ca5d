"""Tests for CacheSet: lookup, recency stack, derived ages, set counters."""

from repro.cache import Cache, CacheConfig
from repro.cache.cache_set import CacheSet
from repro.cache.replacement import make_policy

from tests.conftest import load


def fill_way(cache_set, way, line_address):
    cache_set.fill(way, line_address, line_address, load(line_address))


def one_set_cache(ways=4, detailed=True):
    """A single-set LRU cache: line address N maps to tag N."""
    config = CacheConfig("one", ways * 64, ways, latency=1)
    policy = make_policy("lru")
    policy.bind(config)
    return Cache(config, policy, detailed=detailed)


class TestFind:
    def test_miss_on_empty_set(self):
        cache_set = CacheSet(0, 4)
        assert cache_set.find(42) is None

    def test_finds_filled_way(self):
        cache_set = CacheSet(0, 4)
        fill_way(cache_set, 2, 42)
        assert cache_set.find(42) == 2

    def test_invalid_lines_never_match(self):
        cache_set = CacheSet(0, 4)
        fill_way(cache_set, 1, 42)
        cache_set.invalidate(1)
        assert cache_set.find(42) is None
        assert not cache_set.lines[1].valid


class TestFreeWay:
    def test_empty_set_has_free_way(self):
        assert CacheSet(0, 4).free_way() == 0

    def test_full_set_has_none(self):
        cache_set = CacheSet(0, 2)
        fill_way(cache_set, 0, 1)
        fill_way(cache_set, 1, 2)
        assert cache_set.free_way() is None


class TestRecency:
    def test_promote_keeps_permutation(self):
        cache = one_set_cache()
        for line in range(4):
            cache.access(load(line + 10))
        cache_set = cache.sets[0]
        for line in (12, 10, 13, 11, 11, 12):
            cache.access(load(line))  # a hit promotes the line to MRU
            assert sorted(cache_set.recencies()) == [0, 1, 2, 3]

    def test_promoted_way_is_mru(self):
        cache = one_set_cache()
        for line in range(4):
            cache.access(load(line + 10))
        cache.access(load(11))
        cache_set = cache.sets[0]
        assert cache_set.recency(cache_set.find(11)) == 3
        assert cache_set.mru_way() == cache_set.find(11)

    def test_lru_way_is_least_recent(self):
        cache_set = CacheSet(0, 4)
        for way in range(4):
            fill_way(cache_set, way, way + 10)
        assert cache_set.lru_way() == 0
        cache = one_set_cache()
        for line in (10, 11, 12, 13, 10):
            cache.access(load(line))
        # Access order: 10,11,12,13 then 10 -> LRU is line 11's way.
        assert cache.sets[0].lru_way() == cache.sets[0].find(11)

    def test_lru_ignores_invalid_lines(self):
        cache_set = CacheSet(0, 4)
        for way in range(4):
            fill_way(cache_set, way, way + 10)
        lru = cache_set.lru_way()
        cache_set.invalidate(lru)
        assert cache_set.lru_way() != lru

    def test_partly_filled_set_ranks_count_down_from_mru(self):
        cache_set = CacheSet(0, 4)
        fill_way(cache_set, 2, 10)
        fill_way(cache_set, 0, 11)
        assert cache_set.recencies() == [3, 0, 2, 0]


class TestCounters:
    def test_set_access_bumps_set_count_and_line_ages(self):
        cache = one_set_cache()
        cache.access(load(10))
        cache.access(load(11))
        cache_set = cache.sets[0]
        assert cache_set.accesses == 2
        way = cache_set.find(10)
        assert cache_set.age_since_insertion(way) == 1
        assert cache_set.age_since_last_access(way) == 1
        cache.access(load(10))
        assert cache_set.age_since_insertion(way) == 2
        assert cache_set.age_since_last_access(way) == 0
        assert cache_set.lines[way].preuse == 2

    def test_ages_are_exact_without_detail(self):
        cache = one_set_cache(detailed=False)
        cache.access(load(10))
        cache.access(load(11))
        cache.access(load(11))
        cache_set = cache.sets[0]
        assert cache_set.accesses == 3
        assert cache_set.age_since_insertion(cache_set.find(10)) == 2
        assert cache_set.age_since_last_access(cache_set.find(11)) == 0

    def test_accesses_since_miss(self):
        cache = one_set_cache()
        cache.access(load(10))
        cache.access(load(10))
        cache.access(load(10))
        cache_set = cache.sets[0]
        assert cache_set.accesses_since_miss == 2
        cache.access(load(11))
        assert cache_set.accesses_since_miss == 0
        assert cache_set.misses == 2

    def test_valid_ways(self):
        cache_set = CacheSet(0, 4)
        fill_way(cache_set, 1, 10)
        fill_way(cache_set, 3, 11)
        assert cache_set.valid_ways() == [1, 3]
