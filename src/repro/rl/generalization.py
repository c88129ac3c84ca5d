"""Cross-workload generalization (paper §V-A).

"To train the RL agent, we only used the first 100M instructions of eight
SPEC CPU benchmarks.  In evaluation, however, we also show results for 26
new benchmarks that have not been used in training."

This module implements that protocol: train a single agent over the
training benchmarks' LLC streams (round-robin epochs), then evaluate it
greedily on arbitrary (including unseen) workloads through the standard
replay harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.runner import _prepared, replay
from repro.eval.workloads import RL_TRAINING_BENCHMARKS
from repro.rl.policy_adapter import AgentReplacementPolicy
from repro.rl.trainer import TrainedAgent, TrainerConfig, train_on_stream
from repro.rl.environment import RLSimulation


@dataclass
class GeneralizationResult:
    """Outcome of a train-on-A / evaluate-on-B experiment."""

    trained: TrainedAgent
    training_benchmarks: tuple
    hit_rates: dict = field(default_factory=dict)  #: workload -> {policy: rate}


def train_across_benchmarks(
    eval_config,
    benchmarks=RL_TRAINING_BENCHMARKS,
    config: TrainerConfig = None,
    max_records_per_benchmark: int = None,
) -> TrainedAgent:
    """Train one shared agent over several benchmarks' LLC streams.

    Epochs round-robin over the benchmarks (each gets a fresh oracle), so
    the single network sees every training access pattern — the paper's
    "one neural network for victim selection" setup.
    """
    config = config or TrainerConfig()
    llc_config = eval_config.hierarchy(num_cores=1).llc
    trained = None
    stats = None
    for epoch in range(max(1, config.epochs)):
        for name in benchmarks:
            trace = eval_config.trace(name)
            records = _prepared(eval_config, trace, 1, None).llc_records
            if max_records_per_benchmark is not None:
                records = records[:max_records_per_benchmark]
            if trained is None:
                # First stream builds the agent; later streams reuse it.
                trained = train_on_stream(
                    llc_config,
                    records,
                    TrainerConfig(**{**config.__dict__, "epochs": 1}),
                )
            else:
                simulation = RLSimulation(
                    llc_config, trained.agent, trained.extractor, records,
                    train=True,
                )
                stats = simulation.run()
    if stats is not None:
        trained.train_hit_rate = stats.hit_rate
    trained.benchmark = "+".join(benchmarks)
    return trained


def evaluate_generalization(
    eval_config,
    trained: TrainedAgent,
    workloads,
    baselines=("lru", "rlr"),
) -> dict:
    """Greedy evaluation of a trained agent on (possibly unseen) workloads.

    Returns {workload: {"rl": hit_rate, baseline...: hit_rate}} using the
    overall LLC hit rate (the paper's Figure 1 metric).
    """
    results = {}
    for name in workloads:
        trace = eval_config.trace(name)
        prepared = _prepared(eval_config, trace, 1, None)
        row = {}
        for baseline in baselines:
            row[baseline] = replay(prepared, baseline).llc_hit_rate
        adapter = AgentReplacementPolicy(
            trained.agent, trained.extractor, train=False
        )
        row["rl"] = replay(prepared, adapter, detailed=True).llc_hit_rate
        results[name] = row
    return results


def generalization_experiment(
    eval_config,
    held_out,
    training_benchmarks=None,
    config: TrainerConfig = None,
    max_records_per_benchmark: int = None,
) -> GeneralizationResult:
    """Full §V-A protocol: train on one set, evaluate on another."""
    training_benchmarks = tuple(training_benchmarks or RL_TRAINING_BENCHMARKS)
    trained = train_across_benchmarks(
        eval_config,
        training_benchmarks,
        config,
        max_records_per_benchmark=max_records_per_benchmark,
    )
    hit_rates = evaluate_generalization(eval_config, trained, held_out)
    return GeneralizationResult(
        trained=trained,
        training_benchmarks=training_benchmarks,
        hit_rates=hit_rates,
    )
