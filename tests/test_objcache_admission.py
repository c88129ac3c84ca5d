"""Admission hooks: the gate in front of the object cache."""

import pytest

from repro.objcache import (
    ObjectCache,
    ObjectCacheError,
    ObjectRequest,
    admission_names,
    make_admission,
    make_object_policy,
)
from repro.objcache.admission import FrequencyGateAdmission


class TestRegistry:
    def test_bundled_hooks_are_registered(self):
        names = admission_names()
        assert {"always", "freq_gate"} <= set(names)

    def test_unknown_hook_raises_with_known_list(self):
        with pytest.raises(ObjectCacheError, match="known:.*always"):
            make_admission("ml-oracle")


class TestFrequencyGate:
    def test_admits_on_the_second_sighting(self):
        # The cache taps record() before resolving the miss, so the first
        # request of a key reaches the gate with an estimate of 1.
        cache = ObjectCache(
            10_000, make_object_policy("lru"),
            admission=make_admission("freq_gate", threshold=2),
        )
        cache.access(ObjectRequest(key=7, size=100))
        assert 7 not in cache  # one-hit wonder filtered
        cache.access(ObjectRequest(key=7, size=100))
        assert 7 in cache

    def test_cache_counts_gate_rejections(self):
        cache = ObjectCache(
            10_000, make_object_policy("lru"),
            admission=make_admission("freq_gate", threshold=2),
        )
        cache.access(ObjectRequest(key=1, size=500))
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_counters_halve_at_the_reset_interval(self):
        gate = FrequencyGateAdmission(width=64, depth=2, threshold=2,
                                      reset_interval=4)
        request = ObjectRequest(key=5, size=10)
        for _ in range(3):
            gate.record(request, 0)
        assert gate.estimate(5) == 3
        gate.record(request, 0)  # 4th record triggers the halving
        assert gate.estimate(5) == 2

    def test_two_instances_estimate_identically(self):
        # Fixed multipliers: no PYTHONHASHSEED dependence.
        a = FrequencyGateAdmission(width=128, depth=4)
        b = FrequencyGateAdmission(width=128, depth=4)
        for key in range(50):
            request = ObjectRequest(key=key * 31, size=1)
            for _ in range(key % 3 + 1):
                a.record(request, 0)
                b.record(request, 0)
        for key in range(50):
            assert a.estimate(key * 31) == b.estimate(key * 31)

    @pytest.mark.parametrize("kwargs", [
        {"width": 0},
        {"depth": 0},
        {"depth": 5},
        {"threshold": 0},
    ])
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ObjectCacheError):
            FrequencyGateAdmission(**kwargs)
