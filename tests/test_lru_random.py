"""Tests for the LRU, MRU, and Random policies."""

from repro.cache import CacheConfig
from repro.cache.replacement import make_policy
from repro.cache.replacement.lru import LRUPolicy, MRUPolicy

from tests.conftest import load


class TestLRU:
    def test_evicts_least_recently_used(self, tiny_config, make_cache):
        cache = make_cache(tiny_config, "lru")
        for line in (0, 4, 8, 12):
            cache.access(load(line))
        cache.access(load(0))  # 4 is now LRU
        cache.access(load(16))  # evicts 4
        assert cache.contains(0)
        assert not cache.contains(4)

    def test_cyclic_thrash_yields_zero_hits(self, make_cache):
        config = CacheConfig("c", 1 * 4 * 64, 4, latency=1)  # 1 set x 4 ways
        cache = make_cache(config, "lru")
        for _ in range(20):
            for line in range(5):  # 5 lines in a 4-way set
                cache.access(load(line))
        assert cache.stats.hits[0] == 0  # steady-state LRU thrash

    def test_overhead_matches_table1(self):
        config = CacheConfig("llc", 2 * 1024 * 1024, 16, latency=26)
        assert LRUPolicy.overhead_kib(config) == 16.0


class TestMRU:
    def test_retains_working_set_under_thrash(self, make_cache):
        config = CacheConfig("c", 1 * 4 * 64, 4, latency=1)
        cache = make_cache(config, "mru")
        for _ in range(20):
            for line in range(6):
                cache.access(load(line))
        # MRU keeps lines 0..2 resident; hit rate approaches 3/6.
        assert cache.stats.hit_rate > 0.3

    def test_evicts_most_recent(self, tiny_config, make_cache):
        cache = make_cache(tiny_config, "mru")
        for line in (0, 4, 8, 12):
            cache.access(load(line))
        cache.access(load(16))  # evicts 12 (the MRU)
        assert not cache.contains(12)
        assert cache.contains(0)

    def test_overhead_same_as_lru(self):
        config = CacheConfig("llc", 2 * 1024 * 1024, 16, latency=26)
        assert MRUPolicy.overhead_kib(config) == LRUPolicy.overhead_kib(config)


class TestRandom:
    def test_deterministic_given_seed(self, tiny_config):
        def run(seed):
            policy = make_policy("random", seed=seed)
            policy.bind(tiny_config)
            from repro.cache import Cache

            cache = Cache(tiny_config, policy)
            hits = 0
            for i in range(200):
                hits += cache.access(load(i % 7)).hit
            return hits

        assert run(3) == run(3)

    def test_zero_overhead(self, tiny_config):
        from repro.cache.replacement.random_policy import RandomPolicy

        assert RandomPolicy.overhead_bits(tiny_config) == 0

    def test_victim_always_valid(self, tiny_config, make_cache, rng):
        cache = make_cache(tiny_config, "random")
        for i in range(500):
            cache.access(load(rng.randrange(40)))
        # No exception and all sets remain consistent.
        for cache_set in cache.sets:
            recencies = [rank for l, rank in zip(cache_set.lines,
                                                 cache_set.recencies())
                         if l.valid]
            assert len(set(recencies)) == len(recencies)
