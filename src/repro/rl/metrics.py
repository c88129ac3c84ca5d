"""Training diagnostics for the RL pipeline.

Tracks, per training window: the fraction of Belady-optimal decisions, the
fraction of actively harmful ones, and the mean training loss — the curves
one watches to know an agent is converging (the paper trains until the
policy stabilizes; these metrics make "stabilizes" observable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rl.reward import NEGATIVE_REWARD, POSITIVE_REWARD


@dataclass
class TrainingCurve:
    """Windowed training-progress series."""

    window: int
    optimal_rates: list = field(default_factory=list)
    harmful_rates: list = field(default_factory=list)
    mean_losses: list = field(default_factory=list)

    @property
    def windows(self) -> int:
        return len(self.optimal_rates)

    @property
    def final_optimal_rate(self) -> float:
        return self.optimal_rates[-1] if self.optimal_rates else 0.0

    def improved(self) -> bool:
        """Did the optimal-decision rate rise from the first to last window?"""
        if len(self.optimal_rates) < 2:
            return False
        return self.optimal_rates[-1] > self.optimal_rates[0]


class TrainingMonitor:
    """Hooks into an agent's decision stream to build a TrainingCurve.

    Wire it by calling :meth:`record_decision` with each decision's scalar
    reward (or the chosen entry of the counterfactual vector) and
    :meth:`record_loss` after each training step; or use
    :func:`train_with_monitor` which does the wiring.
    """

    def __init__(self, window: int = 500) -> None:
        self.curve = TrainingCurve(window=window)
        self._window = window
        self._optimal = 0
        self._harmful = 0
        self._count = 0
        self._losses = []

    def record_decision(self, reward: float) -> None:
        self._count += 1
        if reward == POSITIVE_REWARD:
            self._optimal += 1
        elif reward == NEGATIVE_REWARD:
            self._harmful += 1
        if self._count == self._window:
            self._flush()

    def record_loss(self, loss: float) -> None:
        self._losses.append(loss)

    def _flush(self) -> None:
        self.curve.optimal_rates.append(self._optimal / self._window)
        self.curve.harmful_rates.append(self._harmful / self._window)
        self.curve.mean_losses.append(
            sum(self._losses) / len(self._losses) if self._losses else 0.0
        )
        self._optimal = 0
        self._harmful = 0
        self._count = 0
        self._losses = []


def train_with_monitor(
    llc_config, records, config=None, window: int = 500
):
    """Train an agent while recording its training curve.

    Returns ``(TrainedAgent, TrainingCurve)``.  Implemented by wrapping the
    adapter's reward path; identical training behaviour to
    :func:`repro.rl.trainer.train_on_stream`.
    """
    from repro.cache.cache import Cache
    from repro.rl import reward as reward_module
    from repro.rl.policy_adapter import AgentReplacementPolicy
    from repro.rl.trainer import TrainedAgent, TrainerConfig, make_extractor
    from repro.traces.oracle import NextUseOracle

    config = config or TrainerConfig()
    extractor = make_extractor(llc_config, config.features)
    if config.max_records is not None:
        records = records[: config.max_records]

    from repro.rl.agent import DQNAgent

    agent = DQNAgent(
        input_size=extractor.size,
        ways=llc_config.ways,
        hidden_size=config.hidden_size,
        epsilon=config.epsilon,
        gamma=config.gamma,
        batch_size=config.batch_size,
        train_interval=config.train_interval,
        replay_capacity=config.replay_capacity,
        learning_rate=config.learning_rate,
        seed=config.seed,
    )
    monitor = TrainingMonitor(window=window)

    class _MonitoredAdapter(AgentReplacementPolicy):
        def victim(self, set_index, cache_set, access):
            way = super().victim(set_index, cache_set, access)
            grade = reward_module.belady_reward(
                self.oracle, cache_set, way, access
            )
            monitor.record_decision(grade)
            return way

    stats = None
    for _ in range(max(1, config.epochs)):
        oracle = NextUseOracle(record.line_address for record in records)
        policy = _MonitoredAdapter(agent, extractor, oracle=oracle, train=True)
        policy.bind(llc_config)
        cache = Cache(llc_config, policy, detailed=True)
        for record in records:
            cache.access(record)
        policy.finish()
        stats = cache.stats
    for loss in agent.losses:
        monitor.record_loss(loss)
    trained = TrainedAgent(
        agent=agent,
        extractor=extractor,
        train_hit_rate=stats.hit_rate if stats else 0.0,
    )
    return trained, monitor.curve
