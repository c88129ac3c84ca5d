"""Tests for set-partitioned multi-agent replacement (§III-A option)."""

import pytest

from repro.cache import Cache, CacheConfig
from repro.rl.features import FeatureExtractor
from repro.rl.multi_agent import (
    MultiAgentReplacementPolicy,
    make_partitioned_agents,
)
from repro.traces.oracle import NextUseOracle

from tests.conftest import load


@pytest.fixture
def config():
    return CacheConfig("c", 4 * 4 * 64, 4, latency=1)  # 4 sets x 4 ways


def make_policy_under_test(config, num_agents=2, train=True, records=None):
    extractor = FeatureExtractor(ways=config.ways, num_sets=config.num_sets)
    agents = make_partitioned_agents(
        input_size=extractor.size,
        ways=config.ways,
        num_agents=num_agents,
        hidden_size=8,
        batch_size=4,
        train_interval=2,
    )
    oracle = NextUseOracle(r.line_address for r in records) if train else None
    policy = MultiAgentReplacementPolicy(
        agents, extractor, oracle=oracle, train=train
    )
    policy.bind(config)
    return policy, agents


class TestPartitioning:
    def test_sets_route_round_robin(self, config):
        policy, agents = make_policy_under_test(config, train=False)
        assert policy._adapter_for(0) is policy._adapter_for(2)
        assert policy._adapter_for(1) is policy._adapter_for(3)
        assert policy._adapter_for(0) is not policy._adapter_for(1)

    def test_each_partition_trains_only_its_sets(self, config):
        # All traffic to even sets (line addresses with set_index 0/2).
        records = [load((i % 12) * 2) for i in range(400)]
        policy, agents = make_policy_under_test(config, records=records)
        cache = Cache(config, policy, detailed=True)
        for record in records:
            cache.access(record)
        policy.finish()
        assert agents[0].decisions > 0
        assert agents[1].decisions == 0

    def test_needs_at_least_one_agent(self, config):
        extractor = FeatureExtractor(ways=config.ways, num_sets=config.num_sets)
        with pytest.raises(ValueError):
            MultiAgentReplacementPolicy([], extractor)


class TestTraining:
    def test_oracle_advanced_exactly_once_per_access(self, config):
        records = [load(i % 20) for i in range(300)]
        policy, agents = make_policy_under_test(config, records=records)
        cache = Cache(config, policy, detailed=True)
        for record in records:
            cache.access(record)  # misaligned oracle would raise
        assert policy.oracle.position == len(records)

    def test_all_partitions_learn_with_spread_traffic(self, config):
        records = [load(i % 24) for i in range(600)]
        policy, agents = make_policy_under_test(config, records=records)
        cache = Cache(config, policy, detailed=True)
        for record in records:
            cache.access(record)
        policy.finish()
        assert all(agent.decisions > 0 for agent in agents)

    def test_greedy_mode_runs_without_oracle(self, config):
        policy, _ = make_policy_under_test(config, train=False)
        cache = Cache(config, policy, detailed=True)
        for i in range(200):
            cache.access(load(i % 24))
        assert cache.stats.total_accesses == 200


class TestFactory:
    def test_distinct_seeds(self):
        agents = make_partitioned_agents(
            input_size=8, ways=4, num_agents=3, hidden_size=4
        )
        assert len(agents) == 3
        import numpy as np

        assert not np.allclose(agents[0].network.w1, agents[1].network.w1)
