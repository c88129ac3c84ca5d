"""Tests for KPC-R."""

import pytest

from repro.cache import CacheConfig
from repro.cache.replacement.kpc import KPCRPolicy
from repro.cache.replacement.rrip import RRPV_LONG, RRPV_MAX

from tests.conftest import load, prefetch


class TestKPCR:
    def test_prefetch_inserts_distant(self, tiny_config, make_cache):
        policy = KPCRPolicy()
        cache = make_cache(tiny_config, policy)
        cache.access(prefetch(0))
        assert policy._rrpv[0][0] == RRPV_MAX

    def test_prefetch_hit_does_not_promote(self, tiny_config, make_cache):
        policy = KPCRPolicy()
        cache = make_cache(tiny_config, policy)
        cache.access(load(0))
        rrpv_before = policy._rrpv[0][0]
        cache.access(prefetch(0))
        assert policy._rrpv[0][0] == rrpv_before

    def test_demand_hit_promotes(self, tiny_config, make_cache):
        policy = KPCRPolicy()
        cache = make_cache(tiny_config, policy)
        cache.access(load(0))
        cache.access(load(0))
        assert policy._rrpv[0][0] == 0

    def test_leader_sets_disjoint(self, small_config):
        policy = KPCRPolicy()
        policy.bind(small_config)
        assert not (policy._near_leaders & policy._far_leaders)
        assert policy._near_leaders and policy._far_leaders

    def test_near_leader_inserts_long(self, small_config):
        policy = KPCRPolicy()
        policy.bind(small_config)
        leader = next(iter(policy._near_leaders))
        assert policy._insertion_rrpv(leader, load(0)) == RRPV_LONG

    def test_counters_only_track_demand(self, small_config):
        policy = KPCRPolicy()
        policy.bind(small_config)
        leader = next(iter(policy._near_leaders))
        before = policy._psel
        policy.on_miss(leader, prefetch(0))
        assert policy._psel == before
        policy.on_miss(leader, load(0))
        assert policy._psel == before + 1

    def test_overhead_matches_paper(self):
        config = CacheConfig("llc", 2 * 1024 * 1024, 16, latency=26)
        assert KPCRPolicy.overhead_kib(config) == pytest.approx(8.57, abs=0.01)

