"""The offline RL design pipeline (paper §III).

Feature extraction (Table II) -> DQN agent with experience replay ->
weight-heat-map analysis (Figure 3) -> hill-climbing feature selection ->
the insights RLR is built from.
"""

from repro.rl.agent import DQNAgent
from repro.rl.analysis import (
    feature_importance,
    heatmap,
    render_heatmap,
    top_features,
)
from repro.rl.environment import RLSimulation
from repro.rl.explain import explain_decision, render_explanation, saliency
from repro.rl.generalization import (
    GeneralizationResult,
    evaluate_generalization,
    generalization_experiment,
    train_across_benchmarks,
)
from repro.rl.metrics import TrainingCurve, TrainingMonitor, train_with_monitor
from repro.rl.multi_agent import (
    MultiAgentReplacementPolicy,
    make_partitioned_agents,
)
from repro.rl.features import ALL_FEATURE_NAMES, FeatureExtractor
from repro.rl.hill_climbing import HillClimbResult, hill_climb
from repro.rl.network import MLP
from repro.rl.policy_adapter import AgentReplacementPolicy
from repro.rl.replay import ReplayMemory, Transition
from repro.rl.reward import belady_reward
from repro.rl.trainer import (
    TrainedAgent,
    TrainerConfig,
    evaluate_on_stream,
    llc_stream_records,
    make_extractor,
    train_on_stream,
    train_per_benchmark,
)

__all__ = [
    "ALL_FEATURE_NAMES",
    "AgentReplacementPolicy",
    "DQNAgent",
    "FeatureExtractor",
    "GeneralizationResult",
    "explain_decision",
    "render_explanation",
    "saliency",
    "MultiAgentReplacementPolicy",
    "TrainingCurve",
    "TrainingMonitor",
    "evaluate_generalization",
    "generalization_experiment",
    "make_partitioned_agents",
    "train_across_benchmarks",
    "train_with_monitor",
    "HillClimbResult",
    "MLP",
    "RLSimulation",
    "ReplayMemory",
    "TrainedAgent",
    "TrainerConfig",
    "Transition",
    "belady_reward",
    "evaluate_on_stream",
    "feature_importance",
    "heatmap",
    "hill_climb",
    "llc_stream_records",
    "make_extractor",
    "render_heatmap",
    "top_features",
    "train_on_stream",
    "train_per_benchmark",
]
