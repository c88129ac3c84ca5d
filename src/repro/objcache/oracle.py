"""Size-aware Belady oracle for object caches.

Exact Belady is knapsack-hard once objects have sizes, so the oracle grades
against the standard size-aware relaxation (the one LRB-style learned
caches train toward): the best victim is the object occupying the most
**byte-time** before its next hit —

    score(obj) = (next_use(obj) - now) * obj.size

with never-reused objects scoring infinity.  Evicting the max-score
resident frees the most bytes for the longest useful time.

Grading mirrors ``repro.telemetry.decisions`` on the CPU side:

* OPTIMAL — the chosen victim's score ties the best score among residents;
* HARMFUL — the victim scores *below the incoming object*: we evicted
  something more valuable (in byte-time) than what we admitted;
* NEUTRAL — anything in between.
"""

from __future__ import annotations

from repro.traces.oracle import NEVER, NextUseOracle

GRADE_OPTIMAL = "optimal"
GRADE_NEUTRAL = "neutral"
GRADE_HARMFUL = "harmful"


def byte_time(oracle: NextUseOracle, key, size: int, position: int) -> float:
    """Byte-time score: next-use distance weighted by bytes (NEVER if none).

    Skips the in-flight occurrence of ``key`` at ``position``.
    """
    next_use = oracle.next_use_after(key, position)
    if next_use == NEVER:
        return NEVER
    return (next_use - position) * size


def grade_object_eviction(oracle: NextUseOracle, residents: dict,
                          victim, incoming, position: int) -> str:
    """Grade one eviction at request ``position`` (before oracle advance).

    ``residents`` is the cache's post-eviction resident map; the victim is
    scored alongside it, so "best among residents" means best among the
    candidates the policy actually chose from.
    """
    victim_score = byte_time(oracle, victim.key, victim.size, position)
    if victim_score == NEVER:
        return GRADE_OPTIMAL
    best = victim_score
    for obj in residents.values():
        score = byte_time(oracle, obj.key, obj.size, position)
        if score > best:
            best = score
    if victim_score >= best:
        return GRADE_OPTIMAL
    incoming_score = byte_time(oracle, incoming.key, incoming.size,
                               position)
    if victim_score < incoming_score:
        return GRADE_HARMFUL
    return GRADE_NEUTRAL
