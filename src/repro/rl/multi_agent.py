"""Set-partitioned multi-agent replacement (paper §III-A).

"In our simulation framework, there is only one neural network for victim
selection for all sets of the LLC. ...  Designers can choose to use
multiple agents by training them using different combinations of cache
sets."  This module implements that option: the LLC's sets are partitioned
round-robin over K agents, each of which trains only on the decisions of
its own partition.
"""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy
from repro.rl.agent import DQNAgent
from repro.rl.policy_adapter import AgentReplacementPolicy
from repro.traces.oracle import NextUseOracle


class MultiAgentReplacementPolicy(ReplacementPolicy):
    """Route replacement decisions to one of K set-partitioned agents.

    Each agent owns the sets with ``set_index % num_agents == agent_id``.
    The per-agent adapters share nothing; each maintains its own
    access-preuse records and (in training mode) consumes the same future
    oracle, which is advanced exactly once per LLC access by this wrapper.
    """

    name = "rl_multi"
    needs_line_metadata = True

    def __init__(
        self,
        agents,
        feature_extractor,
        oracle: NextUseOracle = None,
        train: bool = False,
    ) -> None:
        super().__init__()
        if not agents:
            raise ValueError("need at least one agent")
        self.num_agents = len(agents)
        self.oracle = oracle
        self.train = train
        # Child adapters never advance the oracle themselves (oracle=None
        # for accounting); rewards still need it, so pass it for lookups
        # but advance centrally.  We accomplish this by advancing here and
        # monkeypatching nothing: the child adapters receive the oracle but
        # with their _account() oracle-advance suppressed via subclassing.
        self._adapters = [
            _PartitionAdapter(agent, feature_extractor, oracle=oracle, train=train)
            for agent in agents
        ]

    def bind(self, config):
        super().bind(config)
        for adapter in self._adapters:
            adapter.bind(config)

    def _adapter_for(self, set_index: int):
        return self._adapters[set_index % self.num_agents]

    def on_hit(self, set_index, way, line, access):
        if self.oracle is not None:
            self.oracle.advance(access.line_address)
        self._adapter_for(set_index).on_hit(set_index, way, line, access)

    def on_miss(self, set_index, access):
        if self.oracle is not None:
            self.oracle.advance(access.line_address)
        self._adapter_for(set_index).on_miss(set_index, access)

    def on_fill(self, set_index, way, line, access):
        self._adapter_for(set_index).on_fill(set_index, way, line, access)

    def on_evict(self, set_index, way, line, access):
        self._adapter_for(set_index).on_evict(set_index, way, line, access)

    def victim(self, set_index, cache_set, access):
        return self._adapter_for(set_index).victim(set_index, cache_set, access)

    def finish(self) -> None:
        """Flush every partition's pending transition."""
        for adapter in self._adapters:
            adapter.finish()


class _PartitionAdapter(AgentReplacementPolicy):
    """An AgentReplacementPolicy that does not advance the shared oracle."""

    def _account(self, set_index, access):
        # The multi-agent wrapper advances the oracle centrally; partitions
        # only track their own set-access counters.
        self._set_accesses[set_index] += 1


def make_partitioned_agents(
    input_size: int,
    ways: int,
    num_agents: int,
    seed: int = 0,
    **agent_kwargs,
) -> list:
    """Construct K independent agents with distinct seeds."""
    return [
        DQNAgent(input_size=input_size, ways=ways, seed=seed + index, **agent_kwargs)
        for index in range(num_agents)
    ]
