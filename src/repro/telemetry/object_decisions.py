"""Per-eviction decision logging for object caches.

The object-world sibling of :mod:`repro.telemetry.decisions`: every
eviction the :class:`~repro.objcache.cache.ObjectCache` makes can be
counted, sampled into a ring, and graded online against the size-aware
Belady oracle (:mod:`repro.objcache.oracle`).  Events carry the victim's
**size** and size bucket, which is what lets ``repro inspect`` render
size-vs-victim profiles — the object analogue of the Fig 5-7 victim
recency/age profiles.

Logs are written, read and validated by the one JSONL codec in
:mod:`repro.telemetry.decisions`, under the ``repro-object-decisions``
header.
"""

from __future__ import annotations

from collections import deque

from repro.objcache.core import MAX_SIZE_BUCKET, size_bucket
from repro.objcache.oracle import (
    GRADE_NEUTRAL,
    GRADE_OPTIMAL,
    grade_object_eviction,
)
from repro.telemetry.decisions import cell_label

DEFAULT_RING_CAPACITY = 4096


class ObjectDecisionTrace:
    """Observes one cache's evictions; attach with :meth:`attach`.

    Args:
        workload / policy: cell labels for the log.
        sample_rate: grade + record every Nth eviction (counter-based, so
            replays sample identically; aggregates cover ALL evictions).
        capacity: event-ring size (oldest events drop beyond it).
        oracle: optional :class:`~repro.traces.oracle.NextUseOracle` over
            the request keys; grading is skipped without one.
    """

    def __init__(self, workload: str = "", policy: str = "", *,
                 sample_rate: int = 1,
                 capacity: int = DEFAULT_RING_CAPACITY,
                 oracle=None, total: int = 0) -> None:
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        self.workload = workload
        self.policy = policy
        self.sample_rate = sample_rate
        self.capacity = capacity
        self.oracle = oracle
        self.total = total
        self.evictions = 0
        self.evicted_bytes = 0
        self.sampled = 0
        self.dropped = 0
        self.optimal = 0
        self.neutral = 0
        self.harmful = 0
        self._ring = deque(maxlen=capacity)
        self._cache = None
        # bucket -> [evictions, bytes, optimal, neutral, harmful]
        self._buckets = {}

    def attach(self, cache) -> None:
        """Register on an ObjectCache's decision-observer list."""
        self._cache = cache
        cache.add_decision_observer(self._on_evict)

    def on_access(self, request, hit: bool) -> None:
        """Advance the oracle past the completed request (call per access)."""
        if self.oracle is not None:
            self.oracle.advance(request.key)

    # -- observation -------------------------------------------------------

    def _on_evict(self, victim, incoming, now: int) -> None:
        bucket = size_bucket(victim.size)
        row = self._buckets.setdefault(bucket, [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += victim.size
        self.evictions += 1
        self.evicted_bytes += victim.size
        if (self.evictions - 1) % self.sample_rate != 0:
            return
        grade = ""
        if self.oracle is not None:
            residents = self._cache.residents if self._cache else {}
            grade = grade_object_eviction(
                self.oracle, residents, victim, incoming, now
            )
            if grade == GRADE_OPTIMAL:
                self.optimal += 1
                row[2] += 1
            elif grade == GRADE_NEUTRAL:
                self.neutral += 1
                row[3] += 1
            else:
                self.harmful += 1
                row[4] += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append({
            "index": now,
            "key": victim.key,
            "size": victim.size,
            "bucket": bucket,
            "age": victim.age(now),
            "hits": victim.hits,
            "seen_before": int(victim.seen_before),
            "incoming_key": incoming.key if incoming else -1,
            "incoming_size": incoming.size if incoming else 0,
            "grade": grade,
        })
        self.sampled += 1

    # -- results -----------------------------------------------------------

    @property
    def graded(self) -> int:
        return self.optimal + self.neutral + self.harmful

    @property
    def regret_x2(self) -> int:
        return self.neutral + 2 * self.harmful

    def summary(self) -> dict:
        return {
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "sampled": self.sampled,
            "dropped": self.dropped,
            "graded": self.graded,
            "optimal": self.optimal,
            "neutral": self.neutral,
            "harmful": self.harmful,
            "regret_x2": self.regret_x2,
        }

    def cell_payload(self) -> dict:
        return {
            "workload": self.workload,
            "policy": self.policy,
            "sample_rate": self.sample_rate,
            "total": self.total,
            "graded_mode": self.oracle is not None,
            "summary": self.summary(),
            "size_buckets": {
                str(bucket): {
                    "evictions": row[0],
                    "bytes": row[1],
                    "optimal": row[2],
                    "neutral": row[3],
                    "harmful": row[4],
                }
                for bucket, row in sorted(self._buckets.items())
            },
            "events": list(self._ring),
        }


def render_size_profile(cells) -> str:
    """Size-vs-victim profile table (one block per cell) for ``repro
    inspect``: which size buckets supply the victims, byte mass, and the
    graded regret concentrated there."""
    blocks = []
    for cell in cells:
        lines = [f"{cell_label(cell)} — size-vs-victim profile"]
        summary = cell.get("summary", {})
        lines.append(
            "  evictions {evictions}  bytes {evicted_bytes}  graded "
            "{graded}  regret_x2 {regret_x2}".format(
                evictions=summary.get("evictions", 0),
                evicted_bytes=summary.get("evicted_bytes", 0),
                graded=summary.get("graded", 0),
                regret_x2=summary.get("regret_x2", 0),
            )
        )
        lines.append(
            "  bucket      size-range    evictions        bytes  "
            "optimal  neutral  harmful"
        )
        buckets = cell.get("size_buckets", {})
        for bucket in sorted(buckets, key=int):
            row = buckets[bucket]
            low = 1 << int(bucket)
            label = (f">={low}B" if int(bucket) >= MAX_SIZE_BUCKET
                     else f"{low}-{(low << 1) - 1}B")
            lines.append(
                f"  {bucket:>6}  {label:>14}  {row['evictions']:>9}  "
                f"{row['bytes']:>11}  {row['optimal']:>7}  "
                f"{row['neutral']:>7}  {row['harmful']:>7}"
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
