"""Training the size-aware RLR variant's size-bucket weight.

ObjectRLR keeps the paper's priority structure and adds one learned knob:
``size_weight``, the priority units subtracted per log2 size bucket
(:mod:`repro.objcache.rlr`).  This module searches that knob the way the
CPU side's hill-climbing analysis (§III-B) searches feature switches —
deterministic candidate evaluation on a training trace, best
byte-hit-rate wins, ties break toward the smaller weight (prefer the
least size-aggressive policy that achieves the score).

Every evaluation also runs the object feature extractor over the victims
the candidate chose, so the training history records *what* each weight
evicts (mean victim size/age/hits) — the diagnostics that make a chosen
weight explainable rather than a bare argmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cache import ObjectCache
from .features import ObjectFeatureExtractor
from .rlr import ObjectRLRPolicy

DEFAULT_WEIGHT_GRID = tuple(range(0, 25, 4))


@dataclass
class WeightEvaluation:
    weight: int
    byte_hit_rate: float
    object_hit_rate: float
    evictions: int
    victim_feature_means: dict = field(default_factory=dict)


@dataclass
class TrainResult:
    best_weight: int
    best_byte_hit_rate: float
    baseline_byte_hit_rate: float  #: weight 0 — the size-agnostic variant
    history: list = field(default_factory=list)

    @property
    def improved(self) -> bool:
        return self.best_byte_hit_rate > self.baseline_byte_hit_rate

    def as_dict(self) -> dict:
        return {
            "best_weight": self.best_weight,
            "best_byte_hit_rate": self.best_byte_hit_rate,
            "baseline_byte_hit_rate": self.baseline_byte_hit_rate,
            "history": [
                {
                    "weight": entry.weight,
                    "byte_hit_rate": entry.byte_hit_rate,
                    "object_hit_rate": entry.object_hit_rate,
                    "evictions": entry.evictions,
                    "victim_feature_means": entry.victim_feature_means,
                }
                for entry in self.history
            ],
        }


def evaluate_weight(trace, capacity_bytes: int,
                    weight: int) -> WeightEvaluation:
    """Replay the training trace with one candidate weight."""
    policy = ObjectRLRPolicy(size_weight=weight)
    cache = ObjectCache(capacity_bytes, policy)
    extractor = ObjectFeatureExtractor(
        enabled=("obj_size", "obj_log2_size", "obj_age", "obj_hits")
    )
    sums = [0.0] * extractor.size
    count = 0

    def observe(victim, incoming, now):
        nonlocal count
        vector = extractor.vector(victim, incoming, now)
        for index in range(extractor.size):
            sums[index] += float(vector[index])
        count += 1

    cache.add_decision_observer(observe)
    stats = cache.replay(trace.requests)
    means = {
        name: (sums[index] / count if count else 0.0)
        for index, name in enumerate(extractor.feature_order)
    }
    return WeightEvaluation(
        weight=weight,
        byte_hit_rate=stats.byte_hit_rate,
        object_hit_rate=stats.object_hit_rate,
        evictions=stats.evictions,
        victim_feature_means=means,
    )


def train_size_weight(trace, capacity_bytes: int,
                      weights=DEFAULT_WEIGHT_GRID) -> TrainResult:
    """Grid-search ``size_weight`` on a training trace (deterministic)."""
    history = []
    baseline = None
    best = None
    grid = sorted(set(int(weight) for weight in weights))
    if 0 not in grid:
        grid.insert(0, 0)  # the size-agnostic baseline is always measured
    for weight in grid:
        evaluation = evaluate_weight(trace, capacity_bytes, weight)
        history.append(evaluation)
        if weight == 0:
            baseline = evaluation
        # Strict > keeps the smallest weight on ties.
        if best is None or evaluation.byte_hit_rate > best.byte_hit_rate:
            best = evaluation
    return TrainResult(
        best_weight=best.weight,
        best_byte_hit_rate=best.byte_hit_rate,
        baseline_byte_hit_rate=baseline.byte_hit_rate,
        history=history,
    )
