"""Integration tests of the RL design pipeline (train -> analyze -> select)."""

import random

import pytest

from repro.cache import CacheConfig
from repro.rl import (
    TrainerConfig,
    evaluate_on_stream,
    feature_importance,
    heatmap,
    hill_climb,
    render_heatmap,
    top_features,
    train_on_stream,
)
from repro.rl.trainer import TrainedAgent, make_extractor

from tests.conftest import load, prefetch


@pytest.fixture(scope="module")
def llc_config():
    return CacheConfig("LLC", 16 * 8 * 64, 8, latency=26)  # 16 sets x 8 ways


@pytest.fixture(scope="module")
def stream(llc_config):
    """Hot set + scan: optimal behaviour is learnable."""
    rng = random.Random(0)
    records = []
    scan = 0
    for _ in range(4000):
        if rng.random() < 0.55:
            records.append(load(rng.randrange(64), pc=4))
        else:
            records.append(load(200 + scan % 1500, pc=8))
            scan += 1
    return records


@pytest.fixture(scope="module")
def trained(llc_config, stream):
    config = TrainerConfig(hidden_size=32, epochs=2, seed=1)
    return train_on_stream(llc_config, stream, config)


class TestTraining:
    def test_agent_beats_lru_on_training_pattern(self, llc_config, stream, trained):
        from repro.cache import Cache
        from repro.cache.replacement import make_policy

        policy = make_policy("lru")
        policy.bind(llc_config)
        lru = Cache(llc_config, policy)
        for record in stream:
            lru.access(record)
        stats = evaluate_on_stream(trained, llc_config, stream)
        assert stats.hit_rate > lru.stats.hit_rate

    def test_training_populates_replay_and_losses(self, trained):
        assert trained.agent.decisions > 100
        assert trained.agent.losses

    def test_max_records_truncation(self, llc_config, stream):
        config = TrainerConfig(hidden_size=8, epochs=1, max_records=500)
        result = train_on_stream(llc_config, stream, config)
        assert result.agent.decisions < 600


class TestAnalysis:
    def test_feature_importance_covers_all_features(self, trained):
        importances = feature_importance(trained.agent.network, trained.extractor)
        assert len(importances) == 18
        assert all(value >= 0 for value in importances.values())

    def test_heatmap_shape_and_normalization(self, trained):
        agents = {"bench_a": trained, "bench_b": trained}
        features, benchmarks, matrix = heatmap(agents)
        assert matrix.shape == (len(features), 2)
        assert matrix.max() <= 1.0 + 1e-9
        assert benchmarks == ["bench_a", "bench_b"]

    def test_top_features_returns_requested_count(self, trained):
        agents = {"a": trained, "b": trained, "c": trained}
        top = top_features(agents, count=5, min_benchmarks=3)
        assert len(top) == 5

    def test_render_heatmap_is_text(self, trained):
        features, benchmarks, matrix = heatmap({"a": trained})
        text = render_heatmap(features, benchmarks, matrix)
        assert "line_preuse" in text


class TestHillClimbing:
    def test_selects_features_and_improves(self, llc_config, stream):
        config = TrainerConfig(hidden_size=8, epochs=1, max_records=1200, seed=2)
        result = hill_climb(
            llc_config,
            [stream[:1200]],
            candidates=["line_preuse", "line_hits", "line_recency", "line_dirty"],
            config=config,
            max_features=2,
        )
        assert 1 <= len(result.selected) <= 2
        assert result.steps
        assert result.steps[0].candidate_scores
        # Scores are hit rates.
        assert 0.0 <= result.steps[-1].score <= 1.0

    def test_steps_monotonic(self, llc_config, stream):
        config = TrainerConfig(hidden_size=8, epochs=1, max_records=800, seed=3)
        result = hill_climb(
            llc_config,
            [stream[:800]],
            candidates=["line_preuse", "line_recency"],
            config=config,
            max_features=2,
        )
        scores = [step.score for step in result.steps]
        assert scores == sorted(scores)
