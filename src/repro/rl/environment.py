"""The RL training environment (paper Figure 2).

An LLC-only cache simulator fed with a pre-recorded LLC access stream (the
paper generates these with ChampSim; here they come from
:func:`repro.eval.runner.prepare_workload` or straight from synthetic
generators).  On every non-compulsory miss the agent picks the victim; the
environment scores the decision against Belady via the future oracle and the
agent trains from replay memory.
"""

from __future__ import annotations

from repro.cache.cache import Cache
from repro.rl.policy_adapter import AgentReplacementPolicy
from repro.traces.oracle import NextUseOracle


class RLSimulation:
    """One agent-driven pass over an LLC access stream.

    Args:
        llc_config: LLC geometry.
        agent: A :class:`repro.rl.agent.DQNAgent`.
        feature_extractor: Table II state-vector builder.
        records: The LLC access stream (TraceRecord list).
        train: Learn (epsilon-greedy + rewards) or evaluate (greedy).
    """

    def __init__(self, llc_config, agent, feature_extractor, records, train=True):
        self.records = records
        oracle = NextUseOracle(r.line_address for r in records) if train else None
        self.policy = AgentReplacementPolicy(
            agent, feature_extractor, oracle=oracle, train=train
        )
        self.policy.bind(llc_config)
        self.cache = Cache(llc_config, self.policy, detailed=True)

    def run(self):
        """Process the whole stream; returns the cache's statistics."""
        access = self.cache.access
        for record in self.records:
            access(record)
        self.policy.finish()
        return self.cache.stats
