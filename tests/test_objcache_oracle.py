"""Size-aware Belady oracle: byte-time scoring and eviction grading."""

import pytest

from repro.objcache import CachedObject, ObjectRequest, grade_object_eviction
from repro.objcache.oracle import (
    GRADE_HARMFUL,
    GRADE_NEUTRAL,
    GRADE_OPTIMAL,
    NEVER,
    byte_time,
)
from repro.traces.oracle import NextUseOracle


def requests(*keys, size=100):
    return [ObjectRequest(key=key, size=size) for key in keys]


def oracle_over(stream):
    return NextUseOracle(request.key for request in stream)


def resident(key, size):
    return CachedObject(key=key, size=size, inserted_at=0, last_access=0)


class TestOracle:
    def test_next_use_and_advance(self):
        stream = requests(1, 2, 1, 3)
        oracle = oracle_over(stream)
        assert oracle.next_use(1) == 0
        oracle.advance(stream[0].key)
        assert oracle.next_use(1) == 2
        assert oracle.next_use(9) == NEVER

    def test_misalignment_raises(self):
        stream = requests(1, 2)
        oracle = oracle_over(stream)
        with pytest.raises(RuntimeError, match="misalignment"):
            oracle.advance(stream[1].key)

    def test_score_is_distance_times_size(self):
        stream = requests(1, 2, 3, 1)
        oracle = oracle_over(stream)
        # Key 1 next used at position 3; from position 0 that's distance 3
        # (skipping the in-flight occurrence at position 0).
        assert byte_time(oracle, 1, 50, 0) == 3 * 50
        assert byte_time(oracle, 2, 50, 3) == NEVER


class TestGrading:
    def test_never_reused_victim_is_optimal(self):
        stream = requests(1, 2)
        oracle = oracle_over(stream)
        grade = grade_object_eviction(
            oracle, {}, resident(9, 100), stream[0], 0
        )
        assert grade == GRADE_OPTIMAL

    def test_best_scoring_victim_is_optimal(self):
        # Victim key 2 reused at position 5 (distance 5 x 100); the other
        # resident key 3 reused at position 1 (distance 1 x 100).
        stream = requests(9, 3, 9, 9, 9, 2)
        oracle = oracle_over(stream)
        residents = {3: resident(3, 100)}
        grade = grade_object_eviction(
            oracle, residents, resident(2, 100), stream[0], 0
        )
        assert grade == GRADE_OPTIMAL

    def test_evicting_hotter_than_incoming_is_harmful(self):
        # Victim key 2 is reused at position 1; the incoming key 9 is never
        # requested again — we evicted byte-time we could have kept.
        stream = requests(9, 2)
        oracle = oracle_over(stream)
        residents = {3: resident(3, 100)}
        grade = grade_object_eviction(
            oracle, residents, resident(2, 100), stream[0], 0
        )
        assert grade == GRADE_HARMFUL

    def test_middle_choice_is_neutral(self):
        # Victim key 2 (distance 2) is worse than resident key 3 (never
        # reused = infinite score) but still better than the incoming key 9
        # (distance 1): not optimal, not harmful.
        stream = requests(9, 9, 2)
        oracle = oracle_over(stream)
        residents = {3: resident(3, 100)}
        grade = grade_object_eviction(
            oracle, residents, resident(2, 100), stream[0], 0
        )
        assert grade == GRADE_NEUTRAL
