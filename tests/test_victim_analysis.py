"""Tests for the generalized victim-profile analysis."""

import json

import pytest

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import make_policy
from repro.eval.victim_analysis import (
    VictimCollector,
    VictimStatistics,
    compare_victim_profiles,
    policy_victim_statistics,
)
from repro.eval.workloads import EvalConfig

from tests.conftest import load, prefetch


@pytest.fixture(scope="module")
def eval_config():
    return EvalConfig(scale=64, trace_length=4000, seed=3)


class TestCollector:
    def test_accumulates_victims(self):
        config = CacheConfig("c", 1 * 2 * 64, 2, latency=1)
        policy = make_policy("lru")
        policy.bind(config)
        cache = Cache(config, policy, detailed=True)
        collector = VictimCollector()
        cache.add_decision_observer(collector)
        for line in range(6):
            cache.access(load(line))
        stats = collector.statistics()
        assert stats.victims == 4
        assert stats.hits_histogram["0"] == 1.0  # nothing was ever hit

    def test_age_by_type_tracks_last_access(self):
        config = CacheConfig("c", 1 * 2 * 64, 2, latency=1)
        policy = make_policy("lru")
        policy.bind(config)
        cache = Cache(config, policy, detailed=True)
        collector = VictimCollector()
        cache.add_decision_observer(collector)
        cache.access(prefetch(0))
        cache.access(load(1))
        cache.access(load(2))  # evicts the prefetched line 0 (LRU)
        stats = collector.statistics()
        assert "PR" in stats.avg_age_by_type

    def test_empty_statistics(self):
        stats = VictimCollector().statistics()
        assert stats.victims == 0
        assert stats.zero_hit_fraction == 0.0


class TestPolicyStatistics:
    def test_lru_evicts_low_recency_victims(self, eval_config):
        stats = policy_victim_statistics(eval_config, "471.omnetpp", "lru")
        ways = eval_config.hierarchy(num_cores=1).llc.ways
        # LRU victims are by definition at recency 0.
        assert stats.recency_histogram.get(0, 0.0) == pytest.approx(1.0)
        assert stats.upper_half_recency_fraction(ways) == 0.0

    def test_rlr_prefers_recent_victims_vs_lru(self, eval_config):
        profiles = compare_victim_profiles(
            eval_config, "471.omnetpp", ["lru", "rlr_unopt"]
        )
        ways = eval_config.hierarchy(num_cores=1).llc.ways
        assert (
            profiles["rlr_unopt"].upper_half_recency_fraction(ways)
            > profiles["lru"].upper_half_recency_fraction(ways)
        )

    def test_victims_mostly_unhit_on_thrashy_workload(self, eval_config):
        stats = policy_victim_statistics(eval_config, "429.mcf", "rlr")
        assert stats.zero_hit_fraction > 0.5

    def test_histograms_normalized(self, eval_config):
        stats = policy_victim_statistics(eval_config, "450.soplex", "drrip")
        assert sum(stats.hits_histogram.values()) == pytest.approx(1.0)
        assert sum(stats.recency_histogram.values()) == pytest.approx(1.0)


class TestKeyNormalization:
    """Histogram key types survive serialization (regression).

    ``hits_histogram`` keys are strings ("0"/"1"/">1"), ``recency_histogram``
    keys are ints — a JSON round-trip turns the latter into strings, which
    used to silently zero ``upper_half_recency_fraction`` (string keys never
    compare >= an int threshold) and break ``zero_hit_fraction`` lookups.
    """

    def test_json_round_trip_preserves_derived_fractions(self, eval_config):
        stats = policy_victim_statistics(eval_config, "471.omnetpp", "rlr_unopt")
        ways = eval_config.hierarchy(num_cores=1).llc.ways
        restored = VictimStatistics.from_dict(
            json.loads(json.dumps(stats.as_dict()))
        )
        assert restored.victims == stats.victims
        assert restored.zero_hit_fraction == stats.zero_hit_fraction
        assert (
            restored.upper_half_recency_fraction(ways)
            == stats.upper_half_recency_fraction(ways)
        )
        assert restored.recency_histogram == stats.recency_histogram
        assert all(
            isinstance(key, int) for key in restored.recency_histogram
        )
        assert all(
            isinstance(key, str) for key in restored.hits_histogram
        )

    def test_from_dict_accepts_string_recency_keys(self):
        payload = {
            "victims": 4,
            "avg_age_by_type": {"LD": 2.0},
            "hits_histogram": {0: 0.75, 1: 0.25},
            "recency_histogram": {"0": 0.5, "3": 0.5},
        }
        stats = VictimStatistics.from_dict(payload)
        assert stats.zero_hit_fraction == 0.75
        assert stats.recency_histogram == {0: 0.5, 3: 0.5}
        assert stats.upper_half_recency_fraction(4) == 0.5
