"""Belady-derived reward (paper §III-A "Reward").

* +1 when the agent evicts the line with the farthest reuse distance in the
  set (the Belady-optimal choice);
* -1 when the evicted line would be reused *sooner* than the line being
  inserted (keeping it would have yielded an earlier hit);
* 0 otherwise.

"Only the optimal replacement decision is assigned a positive reward,
differentiating it from the other decisions."

Next uses come from a :class:`~repro.traces.oracle.NextUseOracle` over the
LLC line-address stream, which the caller advances once per LLC access.
"""

from __future__ import annotations

from repro.traces.oracle import NEVER, NextUseOracle

POSITIVE_REWARD = 1.0
NEGATIVE_REWARD = -1.0
NEUTRAL_REWARD = 0.0


def belady_reward_vector(oracle: NextUseOracle, cache_set, access) -> list:
    """Counterfactual rewards for evicting EACH way (invalid ways: -1).

    Because the oracle knows the future, the reward of every possible
    eviction is computable at decision time, not just the taken one.  Using
    the full vector as a regression target makes training far more
    sample-efficient than single-action DQN updates; both modes are
    supported (see :class:`repro.rl.agent.DQNAgent`'s ``counterfactual``).
    """
    next_uses = [
        oracle.next_use(line.line_address) if line.valid else None
        for line in cache_set.lines
    ]
    valid_uses = [use for use in next_uses if use is not None]
    farthest = max(valid_uses)
    inserted_next = oracle.next_use(access.line_address)
    rewards = []
    for use in next_uses:
        if use is None:
            rewards.append(NEGATIVE_REWARD)
        elif use == farthest:
            rewards.append(POSITIVE_REWARD)
        elif use < inserted_next:
            rewards.append(NEGATIVE_REWARD)
        else:
            rewards.append(NEUTRAL_REWARD)
    return rewards


def belady_reward(oracle: NextUseOracle, cache_set, victim_way: int,
                  access) -> float:
    """Reward the agent's choice of ``victim_way`` for the missing ``access``.

    Must be called *after* the oracle has advanced past the current access,
    so every ``next_use`` refers strictly to the future.
    """
    next_uses = [
        oracle.next_use(line.line_address) if line.valid else NEVER
        for line in cache_set.lines
    ]
    farthest = max(next_uses)
    chosen = next_uses[victim_way]
    if chosen == farthest:
        return POSITIVE_REWARD
    if chosen < oracle.next_use(access.line_address):
        return NEGATIVE_REWARD
    return NEUTRAL_REWARD
