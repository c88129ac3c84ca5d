"""The RL agent as a cache replacement policy (paper Figure 2).

:class:`AgentReplacementPolicy` plugs a :class:`repro.rl.agent.DQNAgent`
into the standard policy interface, so the agent can drive the same cache
simulator as every hand-crafted policy.  In training mode it computes the
Belady-derived reward from a :class:`repro.traces.oracle.NextUseOracle` and
feeds transitions into the agent's replay memory; in evaluation mode it acts
greedily.

It also maintains the one simulator-level feature hardware cannot easily
provide: *access preuse* — set accesses since the last access to the missing
address (the paper implements this record-keeping in its simulation
framework, and excludes the feature from the final hardware policy for
exactly this reason).
"""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy
from repro.rl.reward import (
    NEGATIVE_REWARD,
    POSITIVE_REWARD,
    belady_reward,
    belady_reward_vector,
)
from repro.traces.oracle import NextUseOracle


class AgentReplacementPolicy(ReplacementPolicy):
    """Replacement decisions delegated to an RL agent."""

    name = "rl"
    needs_line_metadata = True

    def __init__(
        self,
        agent,
        feature_extractor,
        oracle: NextUseOracle = None,
        train: bool = False,
    ) -> None:
        super().__init__()
        self.agent = agent
        self.features = feature_extractor
        self.oracle = oracle
        self.train = train
        if train and oracle is None:
            raise ValueError("training requires a NextUseOracle for rewards")
        self._set_accesses = None
        self._last_access = {}
        self._pending = None  # (state, action, reward) awaiting next_state
        # Agreement-with-OPT accounting (training only; the reward of the
        # chosen action is already computed, so grading it is free).
        self.optimal_decisions = 0
        self.harmful_decisions = 0
        self.total_decisions = 0

    def _post_bind(self):
        self._set_accesses = [0] * self.num_sets

    # -- access-preuse bookkeeping + oracle advancement ----------------------

    def _account(self, set_index: int, access) -> None:
        self._set_accesses[set_index] += 1
        if self.oracle is not None:
            self.oracle.advance(access.line_address)

    def on_hit(self, set_index, way, line, access):
        self._account(set_index, access)
        self._last_access[access.line_address] = self._set_accesses[set_index]

    def on_miss(self, set_index, access):
        self._account(set_index, access)
        # The fill updates _last_access (on_fill runs after victim()).

    def on_fill(self, set_index, way, line, access):
        self._last_access[access.line_address] = self._set_accesses[set_index]

    def _access_preuse(self, set_index: int, access) -> int:
        last = self._last_access.get(access.line_address)
        if last is None:
            return 0
        return self._set_accesses[set_index] - last

    # -- decisions ------------------------------------------------------------

    def victim(self, set_index, cache_set, access):
        state = self.features.vector(
            access, self._access_preuse(set_index, access), cache_set
        )
        valid_ways = cache_set.valid_ways()
        if self.train:
            action = self.agent.select_action(state, valid_ways)
            if getattr(self.agent, "counterfactual", False):
                rewards = belady_reward_vector(self.oracle, cache_set, access)
                self.agent.observe_vector(state, rewards)
                self._grade(rewards[action])
            else:
                reward = belady_reward(self.oracle, cache_set, action, access)
                self._grade(reward)
                if self._pending is not None:
                    pending_state, pending_action, pending_reward = self._pending
                    self.agent.observe(
                        pending_state, pending_action, pending_reward, state
                    )
                self._pending = (state, action, reward)
        else:
            action = self.agent.select_greedy(state, valid_ways)
        return action

    def _grade(self, reward: float) -> None:
        self.total_decisions += 1
        if reward == POSITIVE_REWARD:
            self.optimal_decisions += 1
        elif reward == NEGATIVE_REWARD:
            self.harmful_decisions += 1

    def decision_grades(self) -> dict:
        """Agreement-with-OPT counts accumulated so far (training mode)."""
        return {
            "optimal": self.optimal_decisions,
            "harmful": self.harmful_decisions,
            "total": self.total_decisions,
        }

    def finish(self) -> None:
        """Flush the last pending transition (end of a training run)."""
        if self._pending is not None:
            state, action, reward = self._pending
            self.agent.observe(state, action, reward, None)
            self._pending = None
