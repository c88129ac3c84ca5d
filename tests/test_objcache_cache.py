"""ObjectCache request-path semantics: evict-until-fits, admission,
byte accounting, and the decision-observer surface."""

import pytest

from repro.objcache import (
    ObjectCache,
    ObjectCacheError,
    ObjectRequest,
    make_object_policy,
)


def lru_cache(capacity):
    return ObjectCache(capacity, make_object_policy("lru"))


def resident_bytes(cache):
    return sum(obj.size for obj in cache.residents.values())


class TestRequestPath:
    def test_miss_then_hit_counts_objects_and_bytes(self):
        cache = lru_cache(1000)
        assert cache.access(ObjectRequest(key=1, size=100)) is False
        assert cache.access(ObjectRequest(key=1, size=100)) is True
        stats = cache.stats
        assert (stats.accesses, stats.hits, stats.misses) == (2, 1, 1)
        assert stats.requested_bytes == 200
        assert stats.hit_bytes == 100 and stats.miss_bytes == 100
        assert resident_bytes(cache) == 100

    def test_evict_until_fits_takes_multiple_victims(self):
        cache = lru_cache(100)
        for key in (1, 2):
            cache.access(ObjectRequest(key=key, size=40))
        # 90 bytes cannot fit next to either resident: both must go.
        cache.access(ObjectRequest(key=3, size=90))
        assert cache.stats.evictions == 2
        assert list(cache.residents) == [3]
        assert resident_bytes(cache) == 90

    def test_object_larger_than_capacity_is_rejected(self):
        cache = lru_cache(100)
        cache.access(ObjectRequest(key=1, size=101))
        assert cache.stats.rejected == 1
        assert cache.stats.rejected_bytes == 101
        assert cache.stats.admitted == 0
        assert len(cache) == 0

    def test_size_change_is_a_miss_plus_replace(self):
        cache = lru_cache(1000)
        cache.access(ObjectRequest(key=1, size=100))
        assert cache.access(ObjectRequest(key=1, size=200)) is False
        assert cache.stats.evictions == 1  # the stale copy left the cache
        assert cache.residents[1].size == 200
        assert resident_bytes(cache) == 200

    def test_readmission_sets_seen_before(self):
        cache = lru_cache(100)
        cache.access(ObjectRequest(key=1, size=60))
        cache.access(ObjectRequest(key=2, size=60))  # evicts key 1
        cache.access(ObjectRequest(key=1, size=60))  # re-admission
        assert cache.residents[1].seen_before is True
        assert cache.residents[1].hits == 0


class TestObservers:
    def test_observer_sees_victim_and_incoming(self):
        cache = lru_cache(100)
        seen = []
        cache.add_decision_observer(
            lambda victim, incoming, now: seen.append(
                (victim.key, victim.size, incoming.key)
            )
        )
        cache.access(ObjectRequest(key=1, size=80))
        cache.access(ObjectRequest(key=2, size=80))
        assert seen == [(1, 80, 2)]

    def test_stale_copy_removal_does_not_notify(self):
        cache = lru_cache(1000)
        seen = []
        cache.add_decision_observer(lambda *args: seen.append(args))
        cache.access(ObjectRequest(key=1, size=100))
        cache.access(ObjectRequest(key=1, size=200))
        assert seen == []


class TestConservation:
    def test_balanced_books_report_no_problems(self):
        cache = lru_cache(500)
        for key in range(20):
            cache.access(ObjectRequest(key=key % 7, size=60 + key))
        assert cache.check_conservation() == []

    def test_tampered_ledger_is_caught(self):
        cache = lru_cache(500)
        cache.access(ObjectRequest(key=1, size=100))
        cache.stats.bytes_in_cache += 1
        problems = cache.check_conservation()
        assert problems
        assert any("bytes_in_cache" in problem for problem in problems)


class TestValidation:
    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ObjectCacheError):
            ObjectCache(0, make_object_policy("lru"))

    @pytest.mark.parametrize("request_", [
        ObjectRequest(key=-1, size=10),
        ObjectRequest(key=1, size=0),
    ])
    def test_malformed_requests_rejected(self, request_):
        with pytest.raises(ObjectCacheError):
            lru_cache(100).access(request_)
