"""Tests for the future oracle, Belady rewards, and replay memory."""

import numpy as np
import pytest

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import make_policy
from repro.rl.replay import ReplayMemory, Transition
from repro.rl.reward import (
    NEGATIVE_REWARD,
    NEUTRAL_REWARD,
    NEVER,
    POSITIVE_REWARD,
    belady_reward,
    belady_reward_vector,
)
from repro.traces.oracle import NextUseOracle

from tests.conftest import load


class TestFutureOracle:
    def test_next_use_positions(self):
        oracle = NextUseOracle([10, 20, 10, 30])
        assert oracle.next_use(10) == 0
        assert oracle.advance(10) == 2
        assert oracle.next_use(10) == 2
        assert oracle.next_use(20) == 1
        assert oracle.next_use(99) is NEVER

    def test_advance_checks_alignment(self):
        oracle = NextUseOracle([10, 20])
        with pytest.raises(RuntimeError, match="misalignment"):
            oracle.advance(20)

    def test_exhaustion(self):
        oracle = NextUseOracle([10])
        assert oracle.advance(10) is NEVER
        assert oracle.next_use(10) is NEVER
        with pytest.raises(RuntimeError, match="misalignment"):
            oracle.advance(10)


def _set_with_lines(config, lines):
    policy = make_policy("lru")
    policy.bind(config)
    cache = Cache(config, policy)
    for line in lines:
        cache.access(load(line))
    return cache.sets[0]


class TestBeladyReward:
    @pytest.fixture
    def setup(self):
        config = CacheConfig("c", 1 * 2 * 64, 2, latency=1)
        cache_set = _set_with_lines(config, [0, 1])
        return config, cache_set

    def test_positive_for_farthest_eviction(self, setup):
        _, cache_set = setup
        # Stream: [0, 1, <current miss on 2>, 0, 1]; farthest = line 1.
        oracle = NextUseOracle([0, 1, 2, 0, 2, 1])
        for line in (0, 1, 2):
            oracle.advance(line)
        way_of_1 = cache_set.find(1)
        assert belady_reward(oracle, cache_set, way_of_1, load(2)) == POSITIVE_REWARD

    def test_negative_for_evicting_sooner_reused_line(self, setup):
        _, cache_set = setup
        # After the miss: 0 reused at 3, inserted line 2 reused at 4,
        # 1 reused at 5. Evicting 0 (reused before 2) is negative.
        oracle = NextUseOracle([0, 1, 2, 0, 2, 1])
        for line in (0, 1, 2):
            oracle.advance(line)
        way_of_0 = cache_set.find(0)
        assert belady_reward(oracle, cache_set, way_of_0, load(2)) == NEGATIVE_REWARD

    def test_neutral_for_intermediate_choice(self, setup):
        _, cache_set = setup
        # next uses: 0 -> 4, 1 -> 5 (farthest), inserted 2 -> 3.
        oracle = NextUseOracle([0, 1, 2, 2, 0, 1])
        for line in (0, 1, 2):
            oracle.advance(line)
        way_of_0 = cache_set.find(0)
        assert belady_reward(oracle, cache_set, way_of_0, load(2)) == NEUTRAL_REWARD

    def test_vector_agrees_with_scalar(self, setup):
        _, cache_set = setup
        oracle = NextUseOracle([0, 1, 2, 0, 2, 1])
        for line in (0, 1, 2):
            oracle.advance(line)
        vector = belady_reward_vector(oracle, cache_set, load(2))
        for way in range(2):
            assert vector[way] == belady_reward(oracle, cache_set, way, load(2))

    def test_never_reused_line_is_optimal_victim(self, setup):
        _, cache_set = setup
        oracle = NextUseOracle([0, 1, 2, 0, 2])  # line 1 never again
        for line in (0, 1, 2):
            oracle.advance(line)
        way_of_1 = cache_set.find(1)
        assert belady_reward(oracle, cache_set, way_of_1, load(2)) == POSITIVE_REWARD


class TestReplayMemory:
    def _transition(self, i):
        return Transition(np.array([i]), i, None, float(i))

    def test_push_and_len(self):
        memory = ReplayMemory(capacity=4)
        for i in range(3):
            memory.push(self._transition(i))
        assert len(memory) == 3

    def test_circular_overwrite(self):
        memory = ReplayMemory(capacity=3)
        for i in range(5):
            memory.push(self._transition(i))
        assert len(memory) == 3
        actions = {t.action for t in memory._buffer}
        assert actions == {2, 3, 4}

    def test_sample_without_replacement(self):
        memory = ReplayMemory(capacity=10, seed=0)
        for i in range(10):
            memory.push(self._transition(i))
        batch = memory.sample(10)
        assert {t.action for t in batch} == set(range(10))

    def test_sample_too_many_raises(self):
        memory = ReplayMemory(capacity=10)
        memory.push(self._transition(0))
        with pytest.raises(ValueError):
            memory.sample(2)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReplayMemory(capacity=0)
