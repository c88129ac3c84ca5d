"""Size-aware eviction policy semantics and the object-policy registry."""

import pytest

from repro.objcache import (
    ObjectCache,
    ObjectCacheError,
    ObjectRequest,
    make_object_policy,
    object_policy_names,
)
from repro.objcache.policies import GDSFPolicy


def fill(cache, sizes, start_key=0):
    for offset, size in enumerate(sizes):
        cache.access(ObjectRequest(key=start_key + offset, size=size))


class TestRegistry:
    def test_known_policies_are_registered(self):
        names = object_policy_names()
        for expected in ("lru", "lru_size", "gdsf", "rlr", "rlr_size"):
            assert expected in names

    def test_unknown_policy_raises_with_known_list(self):
        with pytest.raises(ObjectCacheError, match="known:.*lru"):
            make_object_policy("belady-on-a-budget")


class TestLRU:
    def test_evicts_least_recently_used(self):
        cache = ObjectCache(100, make_object_policy("lru"))
        fill(cache, [40, 40], start_key=1)
        cache.access(ObjectRequest(key=1, size=40))  # refresh key 1
        cache.access(ObjectRequest(key=3, size=40))  # must evict key 2
        assert set(cache.residents) == {1, 3}


class TestLRUSize:
    def test_evicts_largest_first(self):
        cache = ObjectCache(100, make_object_policy("lru_size"))
        fill(cache, [20, 70], start_key=1)
        cache.access(ObjectRequest(key=3, size=50))  # 70-byte object goes
        assert set(cache.residents) == {1, 3}

    def test_size_ties_break_to_oldest_admission(self):
        cache = ObjectCache(100, make_object_policy("lru_size"))
        fill(cache, [40, 40], start_key=1)
        cache.access(ObjectRequest(key=3, size=40))
        assert 1 not in cache.residents  # key 1 was admitted first
        assert set(cache.residents) == {2, 3}


class TestGDSF:
    def test_frequency_protects_small_hot_objects(self):
        cache = ObjectCache(100, make_object_policy("gdsf"))
        cache.access(ObjectRequest(key=1, size=40))
        cache.access(ObjectRequest(key=2, size=40))
        for _ in range(3):
            cache.access(ObjectRequest(key=1, size=40))
        cache.access(ObjectRequest(key=3, size=40))
        assert 1 in cache.residents  # frequency 4 survives
        assert 2 not in cache.residents

    def test_inflation_rises_monotonically_with_evictions(self):
        policy = make_object_policy("gdsf")
        cache = ObjectCache(100, policy)
        values = []
        for key in range(6):
            cache.access(ObjectRequest(key=key, size=60))
            values.append(policy.inflation)
        assert values == sorted(values)
        assert values[-1] > 0.0

    def test_byte_cost_mode_accepted_and_invalid_rejected(self):
        assert GDSFPolicy(cost="byte").cost == "byte"
        with pytest.raises(ObjectCacheError):
            GDSFPolicy(cost="latency")
