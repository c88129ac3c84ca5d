"""Tests for Belady's OPT."""

import pytest

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import make_policy
from repro.cache.replacement.belady import BeladyPolicy, NEVER

from tests.conftest import load


def run_belady(config, lines, allow_bypass=False):
    policy = BeladyPolicy([l for l in lines], allow_bypass=allow_bypass)
    policy.bind(config)
    cache = Cache(config, policy, allow_bypass=allow_bypass)
    for line in lines:
        cache.access(load(line))
    return cache


class TestVictimSelection:
    def test_evicts_farthest_next_use(self):
        config = CacheConfig("c", 1 * 2 * 64, 2, latency=1)  # 1 set x 2 ways
        # Access 0, 1, then 2; 0 is used again sooner than 1 -> evict 1.
        lines = [0, 1, 2, 0, 1]
        cache = run_belady(config, lines)
        # After access to 2: cache holds {0, 2}; the access to 0 hits.
        assert cache.stats.hits[0] >= 1

    def test_never_used_again_evicted_first(self):
        config = CacheConfig("c", 1 * 2 * 64, 2, latency=1)
        lines = [0, 1, 2, 1, 0]
        # 2 never used again... but 0 and 1 both reused; evict order must
        # preserve them. Final hits: accesses 3 (line 1) and 4 (line 0)?
        cache = run_belady(config, lines)
        # At access "2": victim should be whichever of 0/1 is used later(0).
        # Then 1 hits, 0 misses. Total hits >= 1.
        assert cache.stats.total_hits >= 1

    def test_optimality_on_cyclic_thrash(self):
        config = CacheConfig("c", 1 * 4 * 64, 4, latency=1)
        lines = [i % 5 for i in range(200)]
        belady = run_belady(config, lines)
        # OPT misses roughly once per cycle in steady state (it always
        # evicts the line reused farthest away); LRU gets 0 hits.
        lru_policy = make_policy("lru")
        lru_policy.bind(config)
        lru = Cache(config, lru_policy)
        for line in lines:
            lru.access(load(line))
        assert lru.stats.hit_rate < 0.05
        assert belady.stats.hit_rate > 0.7

    def test_next_use_reports_never(self):
        policy = BeladyPolicy([1, 2, 3])
        assert policy.oracle.next_use(99) is NEVER


class TestAlignment:
    def test_misaligned_stream_raises(self, tiny_config):
        policy = BeladyPolicy([0, 1, 2])
        policy.bind(tiny_config)
        cache = Cache(tiny_config, policy)
        cache.access(load(0))
        with pytest.raises(RuntimeError):
            cache.access(load(5))  # stream said line 1 comes next

    def test_exhausted_stream_raises(self, tiny_config):
        policy = BeladyPolicy([0])
        policy.bind(tiny_config)
        cache = Cache(tiny_config, policy)
        cache.access(load(0))
        with pytest.raises(RuntimeError):
            cache.access(load(0))


class TestBypass:
    def test_bypasses_never_reused_insertions(self):
        config = CacheConfig("c", 1 * 2 * 64, 2, latency=1)
        # 0 and 1 are both reused after 2; 2 never reused -> bypass 2.
        lines = [0, 1, 2, 0, 1]
        policy = BeladyPolicy(lines, allow_bypass=True)
        policy.bind(config)
        cache = Cache(config, policy, allow_bypass=True)
        for line in lines:
            cache.access(load(line))
        assert cache.stats.bypasses == 1
        assert cache.stats.total_hits == 2  # both reuses hit


class TestOptimalityProperty:
    def test_belady_beats_all_online_policies(self):
        """OPT must achieve the highest hit count on random streams."""
        import random

        config = CacheConfig("c", 4 * 4 * 64, 4, latency=1)
        rng = random.Random(11)
        lines = [rng.randrange(48) for _ in range(2000)]
        belady_hits = run_belady(config, lines).stats.total_hits
        for name in ("lru", "mru", "srrip", "drrip", "ship", "rlr", "random"):
            policy = make_policy(name)
            policy.bind(config)
            cache = Cache(config, policy)
            for line in lines:
                cache.access(load(line))
            assert belady_hits >= cache.stats.total_hits, name
