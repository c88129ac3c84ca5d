"""Hill-climbing feature selection (paper §III-B).

"We started by training the agent with only one feature at a time.  After
doing this for each individual feature, we select the feature that performs
the best.  Then we enable this feature with one additional feature and
evaluate all such feature pairs.  We repeat the process by adding one more
feature at a time until no further performance improvement is seen."

The paper's search yields five features: access preuse, line preuse, line
last access type, line hits since insertion, and line recency.  The search
here is the same greedy-forward procedure over the Table II feature set,
scored by the trained agent's LLC hit rate on the training stream(s).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rl.features import ALL_FEATURE_NAMES
from repro.rl.trainer import (
    TrainerConfig,
    evaluate_on_stream,
    make_extractor,
    train_on_stream,
)


@dataclass
class HillClimbStep:
    """One round of the greedy search."""

    added_feature: str
    feature_set: tuple
    score: float
    candidate_scores: dict = field(default_factory=dict)


@dataclass
class HillClimbResult:
    """Outcome of the full search."""

    selected: tuple
    steps: list


def _score_feature_set(llc_config, streams, features, config) -> float:
    """Train on each stream with only ``features`` enabled; mean hit rate."""
    total = 0.0
    for records in streams:
        extractor = make_extractor(llc_config, features)
        trained = train_on_stream(llc_config, records, config, extractor=extractor)
        stats = evaluate_on_stream(trained, llc_config, records)
        total += stats.hit_rate
    return total / len(streams)


def hill_climb(
    llc_config,
    streams,
    candidates=ALL_FEATURE_NAMES,
    config: TrainerConfig = None,
    max_features: int = 6,
    min_improvement: float = 1e-3,
) -> HillClimbResult:
    """Greedy-forward feature selection.

    Args:
        llc_config: LLC geometry.
        streams: LLC access streams (lists of TraceRecords) to train/score on.
        candidates: Feature names to search over (default: all of Table II).
        config: Training hyper-parameters; hill climbing typically uses a
            small network and truncated streams for tractability.
        max_features: Stop after selecting this many features.
        min_improvement: Stop when the best addition improves the score by
            less than this.
    """
    if config is None:
        # Small/fast defaults: the search runs many trainings.
        config = TrainerConfig(hidden_size=24, epochs=1, max_records=4000)
    selected = []
    steps = []
    best_score = 0.0
    remaining = [name for name in candidates]
    while remaining and len(selected) < max_features:
        scores = {}
        for candidate in remaining:
            features = tuple(selected) + (candidate,)
            scores[candidate] = _score_feature_set(
                llc_config, streams, features, config
            )
        best_candidate = max(scores, key=scores.get)
        if steps and scores[best_candidate] < best_score + min_improvement:
            break
        best_score = scores[best_candidate]
        selected.append(best_candidate)
        remaining.remove(best_candidate)
        steps.append(
            HillClimbStep(
                added_feature=best_candidate,
                feature_set=tuple(selected),
                score=best_score,
                candidate_scores=scores,
            )
        )
    return HillClimbResult(selected=tuple(selected), steps=steps)
