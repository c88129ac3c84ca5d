"""Tests for the §V-A train/evaluate generalization protocol."""

import pytest

from repro.eval.workloads import EvalConfig
from repro.rl.generalization import (
    GeneralizationResult,
    evaluate_generalization,
    generalization_experiment,
    train_across_benchmarks,
)
from repro.rl.trainer import TrainerConfig


@pytest.fixture(scope="module")
def eval_config():
    return EvalConfig(scale=64, trace_length=2500, seed=3)


@pytest.fixture(scope="module")
def small_trainer():
    return TrainerConfig(hidden_size=12, epochs=1, seed=1)


class TestTrainAcross:
    def test_single_agent_sees_all_benchmarks(self, eval_config, small_trainer):
        trained = train_across_benchmarks(
            eval_config,
            benchmarks=("450.soplex", "471.omnetpp"),
            config=small_trainer,
            max_records_per_benchmark=1200,
        )
        assert trained.benchmark == "450.soplex+471.omnetpp"
        assert trained.agent.decisions > 0

    def test_respects_record_budget(self, eval_config, small_trainer):
        trained = train_across_benchmarks(
            eval_config,
            benchmarks=("450.soplex",),
            config=small_trainer,
            max_records_per_benchmark=600,
        )
        assert trained.agent.decisions <= 600


class TestEvaluate:
    def test_unseen_workload_rows(self, eval_config, small_trainer):
        trained = train_across_benchmarks(
            eval_config,
            benchmarks=("450.soplex",),
            config=small_trainer,
            max_records_per_benchmark=1200,
        )
        results = evaluate_generalization(
            eval_config, trained, ["403.gcc"], baselines=("lru",)
        )
        row = results["403.gcc"]
        assert set(row) == {"lru", "rl"}
        assert all(0.0 <= rate <= 1.0 for rate in row.values())


class TestFullProtocol:
    def test_experiment_round_trip(self, eval_config, small_trainer):
        result = generalization_experiment(
            eval_config,
            held_out=["403.gcc"],
            training_benchmarks=("450.soplex", "471.omnetpp"),
            config=small_trainer,
            max_records_per_benchmark=1000,
        )
        assert isinstance(result, GeneralizationResult)
        assert "403.gcc" in result.hit_rates
        assert result.training_benchmarks == ("450.soplex", "471.omnetpp")
        assert {"rl", "lru"} <= set(result.hit_rates["403.gcc"])
