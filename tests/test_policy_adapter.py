"""Tests for the RL agent <-> replacement policy adapter."""

import pytest

from repro.cache import Cache, CacheConfig
from repro.rl.agent import DQNAgent
from repro.rl.environment import RLSimulation
from repro.rl.features import FeatureExtractor
from repro.rl.policy_adapter import AgentReplacementPolicy
from repro.traces.oracle import NextUseOracle

from tests.conftest import load


@pytest.fixture
def config():
    return CacheConfig("c", 2 * 4 * 64, 4, latency=1)


def make_parts(config, train=True, records=None):
    extractor = FeatureExtractor(ways=config.ways, num_sets=config.num_sets)
    agent = DQNAgent(
        input_size=extractor.size, ways=config.ways, hidden_size=8,
        batch_size=4, train_interval=2, seed=0,
    )
    oracle = None
    if train:
        oracle = NextUseOracle(r.line_address for r in records)
    return agent, extractor, oracle


class TestAdapter:
    def test_train_requires_oracle(self, config):
        agent, extractor, _ = make_parts(config, train=False)
        with pytest.raises(ValueError):
            AgentReplacementPolicy(agent, extractor, oracle=None, train=True)

    def test_training_run_produces_transitions(self, config):
        records = [load(i % 12) for i in range(200)]
        agent, extractor, oracle = make_parts(config, records=records)
        policy = AgentReplacementPolicy(agent, extractor, oracle, train=True)
        policy.bind(config)
        cache = Cache(config, policy, detailed=True)
        for record in records:
            cache.access(record)
        policy.finish()
        assert agent.decisions > 0
        assert len(agent.replay) > 0

    def test_oracle_misalignment_detected(self, config):
        records = [load(i % 12) for i in range(50)]
        agent, extractor, oracle = make_parts(config, records=records)
        policy = AgentReplacementPolicy(agent, extractor, oracle, train=True)
        policy.bind(config)
        cache = Cache(config, policy, detailed=True)
        cache.access(records[0])
        with pytest.raises(RuntimeError):
            cache.access(load(999))  # not what the oracle expects

    def test_greedy_mode_needs_no_oracle(self, config):
        agent, extractor, _ = make_parts(config, train=False)
        policy = AgentReplacementPolicy(agent, extractor, train=False)
        policy.bind(config)
        cache = Cache(config, policy, detailed=True)
        for i in range(100):
            cache.access(load(i % 12))
        assert cache.stats.total_accesses == 100

    def test_access_preuse_tracking(self, config):
        agent, extractor, _ = make_parts(config, train=False)
        policy = AgentReplacementPolicy(agent, extractor, train=False)
        policy.bind(config)
        cache = Cache(config, policy, detailed=True)
        cache.access(load(0))  # set 0 access 1
        cache.access(load(8))  # set 0 access 2 (line 8 -> set 0)
        cache.access(load(16))  # set 0 access 3
        # line 0 last accessed at set-access 1; counter now at 3 -> 2 set
        # accesses have elapsed since.
        assert policy._access_preuse(0, load(0)) == 2
        # A never-seen address has preuse 0.
        assert policy._access_preuse(0, load(24)) == 0


class TestRLSimulation:
    def test_runs_and_returns_stats(self, config):
        records = [load(i % 10) for i in range(300)]
        agent, extractor, _ = make_parts(config, train=False)
        simulation = RLSimulation(config, agent, extractor, records, train=True)
        stats = simulation.run()
        assert stats.total_accesses == 300
        assert 0.0 <= stats.hit_rate <= 1.0

    def test_eval_mode_does_not_learn(self, config):
        records = [load(i % 10) for i in range(300)]
        agent, extractor, _ = make_parts(config, train=False)
        simulation = RLSimulation(config, agent, extractor, records, train=False)
        simulation.run()
        assert agent.train_steps == 0
