"""Hit/miss statistics collected per cache level."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.traces.record import AccessType


@dataclass
class CacheStats:
    """Counters maintained by every :class:`repro.cache.cache.Cache`."""

    hits: dict = field(default_factory=lambda: {t: 0 for t in AccessType})
    misses: dict = field(default_factory=lambda: {t: 0 for t in AccessType})
    evictions: int = 0
    dirty_evictions: int = 0
    bypasses: int = 0
    compulsory_misses: int = 0

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    @property
    def total_accesses(self) -> int:
        return self.total_hits + self.total_misses

    @property
    def demand_hits(self) -> int:
        """Hits from demand accesses (LOAD + RFO)."""
        return self.hits[AccessType.LOAD] + self.hits[AccessType.RFO]

    @property
    def demand_misses(self) -> int:
        """Misses from demand accesses (LOAD + RFO)."""
        return self.misses[AccessType.LOAD] + self.misses[AccessType.RFO]

    @property
    def demand_accesses(self) -> int:
        return self.demand_hits + self.demand_misses

    @property
    def hit_rate(self) -> float:
        """Overall hit rate in [0, 1] (0 if the cache was never accessed)."""
        total = self.total_accesses
        return self.total_hits / total if total else 0.0

    @property
    def demand_hit_rate(self) -> float:
        """Demand (LOAD+RFO) hit rate in [0, 1]."""
        total = self.demand_accesses
        return self.demand_hits / total if total else 0.0

    def demand_mpki(self, instructions: int) -> float:
        """Demand misses per kilo-instruction."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.demand_misses / instructions

    def reset(self) -> None:
        """Zero every counter (used after cache warm-up)."""
        for access_type in AccessType:
            self.hits[access_type] = 0
            self.misses[access_type] = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.bypasses = 0
        self.compulsory_misses = 0

    def summary(self) -> dict:
        """Flat dict of the headline numbers, for reports."""
        return {
            "accesses": self.total_accesses,
            "hits": self.total_hits,
            "misses": self.total_misses,
            "hit_rate": self.hit_rate,
            "demand_hits": self.demand_hits,
            "demand_misses": self.demand_misses,
            "demand_hit_rate": self.demand_hit_rate,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "bypasses": self.bypasses,
        }
