"""The paper's contribution: RLR and its hardware accounting."""

from repro.core.overhead import OverheadRow, rlr_overhead_kib, table1
from repro.core.priority import (
    AGE_WEIGHT,
    PriorityWeights,
    age_priority,
    hit_priority,
    line_priority,
    type_priority,
)
from repro.core.rd_estimator import ReuseDistanceEstimator
from repro.core.rlr import RLRPolicy, RLRUnoptPolicy

__all__ = [
    "AGE_WEIGHT",
    "OverheadRow",
    "PriorityWeights",
    "ReuseDistanceEstimator",
    "RLRPolicy",
    "RLRUnoptPolicy",
    "age_priority",
    "hit_priority",
    "line_priority",
    "rlr_overhead_kib",
    "table1",
    "type_priority",
]
