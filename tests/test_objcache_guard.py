"""The object policy and admission contracts, checked inside ObjectCache.

Every case pins its sanitizer mode explicitly, so the suite means the same
thing under a ``REPRO_SANITIZE=strict`` environment.
"""

import pytest

from repro.objcache import (
    ObjectCache,
    ObjectCacheError,
    ObjectRequest,
    make_object_policy,
)
from repro.objcache.policies import ObjectEvictionPolicy
from repro.sanitize import MODES
from repro.sanitize.errors import PolicyContractError


class NonResidentPolicy(ObjectEvictionPolicy):
    """Always names a key that is not in the cache."""

    name = "bad-nonresident"

    def victim(self, residents, incoming, now):
        return -42


class RaisingPolicy(ObjectEvictionPolicy):
    name = "bad-raising"

    def victim(self, residents, incoming, now):
        raise RuntimeError("internal heap corrupted")


class EvictIncoming(ObjectEvictionPolicy):
    name = "bad-incoming"

    def victim(self, residents, incoming, now):
        return incoming.key


class NonBoolAdmission:
    name = "bad-nonbool"

    def record(self, request, now):
        pass

    def admit(self, request, now):
        return 1  # truthy but not a bool


class RaisingRecord:
    name = "bad-record"

    def record(self, request, now):
        raise ValueError("sketch overflow")

    def admit(self, request, now):
        return False


class RaisingAdmit:
    name = "bad-admit"

    def record(self, request, now):
        pass

    def admit(self, request, now):
        raise KeyError("bucket")


#: Three 30-byte objects fill the 100-byte cache; the hit on key 0 makes
#: recency differ from admission order before the first eviction.
REQUESTS = [ObjectRequest(key=key, size=30)
            for key in (0, 1, 2, 0, 3, 1, 4, 0, 5, 2, 6)]


def drive(cache, requests=REQUESTS):
    return [cache.access(request) for request in requests]


def lru_run(capacity=100, requests=REQUESTS):
    """Hits and final residents of plain LRU over ``requests``."""
    cache = ObjectCache(capacity, make_object_policy("lru"), sanitize="off")
    return drive(cache, requests), list(cache.residents)


class TestCheckedObjectPolicy:
    def test_non_resident_victim_degrades_to_lru(self):
        policy = NonResidentPolicy()
        cache = ObjectCache(100, policy, sanitize="normal")
        hits = drive(cache)
        assert cache.violations == [
            "object policy 'bad-nonresident': victim chose non-resident "
            "key -42"
        ]
        assert cache.policy is not policy
        # Degraded eviction served exact LRU, and the books balance.
        assert (hits, list(cache.residents)) == lru_run()
        assert cache.check_conservation() == []

    def test_raising_victim_degrades_instead_of_crashing(self):
        cache = ObjectCache(100, RaisingPolicy(), sanitize="normal")
        hits = drive(cache)
        assert cache.violations == [
            "object policy 'bad-raising': victim raised RuntimeError: "
            "internal heap corrupted"
        ]
        assert (hits, list(cache.residents)) == lru_run()
        assert cache.check_conservation() == []

    def test_strict_mode_raises_contract_error(self):
        cache = ObjectCache(100, NonResidentPolicy(), sanitize="strict")
        with pytest.raises(PolicyContractError, match="non-resident key -42"):
            drive(cache)
        assert len(cache.violations) == 1  # recorded before raising

    def test_incoming_key_victim_is_a_violation(self):
        cache = ObjectCache(20, EvictIncoming(), sanitize="normal")
        drive(cache, [ObjectRequest(key=2, size=10),
                      ObjectRequest(key=1, size=10)])
        assert cache.access(ObjectRequest(key=3, size=10)) is False
        assert cache.violations == [
            "object policy 'bad-incoming': victim chose the incoming "
            "request's key"
        ]
        # The request is still admitted; LRU evicted the oldest resident.
        assert 3 in cache and 1 in cache and 2 not in cache
        assert cache.check_conservation() == []

    def test_off_mode_returns_unwrapped(self):
        for mode in MODES:
            policy, hook = make_object_policy("lru"), NonBoolAdmission()
            cache = ObjectCache(100, policy, admission=hook, sanitize=mode)
            assert cache.policy is policy
            assert cache.admission is hook
        # Off checks nothing: the non-bool verdict is used as is ...
        cache = ObjectCache(100, make_object_policy("lru"),
                            admission=NonBoolAdmission(), sanitize="off")
        drive(cache)
        assert cache.violations == []
        # ... and a non-resident victim is the cache's own error.
        cache = ObjectCache(100, NonResidentPolicy(), sanitize="off")
        with pytest.raises(ObjectCacheError,
                           match="policy 'bad-nonresident' chose "
                                 "non-resident victim -42"):
            drive(cache)
        assert cache.violations == []

    def test_well_behaved_policy_stays_clean(self):
        policy = make_object_policy("lru")
        cache = ObjectCache(100, policy, sanitize="normal")
        drive(cache)
        assert cache.policy is policy
        assert cache.violations == []

    def test_degraded_policy_gets_no_further_hook_calls(self):
        class Counting(NonResidentPolicy):
            calls = 0

            def on_admit(self, obj, now):
                Counting.calls += 1

            def on_hit(self, obj, now):
                Counting.calls += 1

            def on_evict(self, obj, now):
                Counting.calls += 1

        cache = ObjectCache(100, Counting(), sanitize="normal")
        drive(cache)
        calls = Counting.calls
        drive(cache)  # hits, misses and evictions again
        assert Counting.calls == calls
        assert len(cache.violations) == 1

    def test_mode_resolves_like_the_cpu_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "strict")
        assert ObjectCache(100, make_object_policy("lru")).sanitize == "strict"
        monkeypatch.delenv("REPRO_SANITIZE")
        assert ObjectCache(100, make_object_policy("lru")).sanitize == "normal"


class TestCheckedAdmission:
    def test_non_bool_admit_is_a_violation_and_admits(self):
        hook = NonBoolAdmission()
        cache = ObjectCache(100, make_object_policy("lru"), admission=hook,
                            sanitize="normal")
        cache.access(ObjectRequest(key=1, size=10))
        assert 1 in cache
        assert cache.violations == [
            "admission hook 'bad-nonbool': admit returned int, expected bool"
        ]
        assert cache.admission is not hook

    def test_strict_mode_raises(self):
        cache = ObjectCache(100, make_object_policy("lru"),
                            admission=NonBoolAdmission(), sanitize="strict")
        with pytest.raises(PolicyContractError, match="expected bool"):
            cache.access(ObjectRequest(key=1, size=10))
        assert len(cache.violations) == 1

    def test_raising_record_degrades_to_always_admit(self):
        hook = RaisingRecord()
        cache = ObjectCache(100, make_object_policy("lru"), admission=hook,
                            sanitize="normal")
        hits = drive(cache)
        assert cache.violations == [
            "admission hook 'bad-record': record raised ValueError: "
            "sketch overflow"
        ]
        assert cache.admission is not hook
        # Degraded admission must not keep vetoing requests.
        assert (hits, list(cache.residents)) == lru_run()
        assert cache.check_conservation() == []

    def test_raising_admit_degrades_to_always_admit(self):
        cache = ObjectCache(100, make_object_policy("lru"),
                            admission=RaisingAdmit(), sanitize="normal")
        hits = drive(cache)
        assert cache.violations == [
            "admission hook 'bad-admit': admit raised KeyError: 'bucket'"
        ]
        assert (hits, list(cache.residents)) == lru_run()


class TestObjectSweepDegradation:
    @pytest.fixture
    def broken(self, monkeypatch):
        from repro.objcache.policies import OBJECT_POLICY_REGISTRY

        monkeypatch.setitem(OBJECT_POLICY_REGISTRY, "bad-nonresident",
                            NonResidentPolicy)
        return "bad-nonresident"

    def _sweep(self, broken, mode):
        from repro.objcache import generate_object_trace, object_sweep

        trace = generate_object_trace(name="z", kind="zipf", objects=50,
                                      length=400, seed=1)
        return object_sweep([trace], 20_000, ["lru", broken], sanitize=mode)

    def test_normal_mode_marks_cell_degraded(self, broken):
        report = self._sweep(broken, "normal")
        bad = report.cell("z", broken)
        assert bad.ok and bad.status == "degraded"
        assert bad.violations == (
            "object policy 'bad-nonresident': victim chose non-resident "
            "key -42",
        )
        assert report.cell("z", "lru").status == "ok"
        assert bad.result == report.cell("z", "lru").result

    def test_strict_mode_fails_cell_with_typed_error(self, broken):
        report = self._sweep(broken, "strict")
        bad = report.cell("z", broken)
        assert bad.status == "failed"
        assert "PolicyContractError" in bad.error
        assert report.cell("z", "lru").ok
