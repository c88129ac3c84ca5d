"""Three-level write-back cache hierarchy (Table III).

Private per-core L1D/L1I and L2, shared LLC, next-line prefetcher at L1 and
IP-stride at L2 (both configurable).  The hierarchy is non-inclusive, as in
ChampSim: writebacks allocate at the next level, dirty LLC evictions go to
memory.  Only the LLC replacement policy is pluggable; upper levels use LRU
(as in the paper, which generates its traces with an LRU hierarchy).

The LLC reference stream produced by this hierarchy is independent of the
LLC's own replacement policy (upper levels never observe LLC state), which is
what makes two-pass Belady simulation exact.
"""

from __future__ import annotations

from repro.cache.cache import Cache
from repro.cache.config import HierarchyConfig
from repro.cpu.prefetcher import make_prefetcher
from repro.traces.record import AccessType, OFFSET_BITS, TraceRecord

#: Levels returned by :meth:`CacheHierarchy.access`.
L1, L2, LLC, MEMORY = 1, 2, 3, 4


class CacheHierarchy:
    """A multi-core cache hierarchy with a pluggable LLC policy."""

    def __init__(
        self,
        config: HierarchyConfig,
        llc_policy,
        allow_bypass: bool = False,
        l2_prefetcher: str = None,
        inclusion: str = "non_inclusive",
        sanitize: str = None,
    ) -> None:
        if inclusion not in ("non_inclusive", "inclusive"):
            raise ValueError("inclusion must be 'non_inclusive' or 'inclusive'")
        self.inclusion = inclusion
        self.config = config
        llc_policy.bind(config.llc)
        self.llc = Cache(
            config.llc,
            llc_policy,
            allow_bypass=allow_bypass,
            detailed=getattr(llc_policy, "needs_line_metadata", True),
            sanitize=sanitize,
        )
        self.l1d = []
        self.l2 = []
        self._l1_prefetchers = []
        self._l2_prefetchers = []
        l2_prefetcher_name = l2_prefetcher or config.l2_prefetcher
        for _ in range(config.num_cores):
            self.l1d.append(self._make_level(config.l1d))
            self.l2.append(self._make_level(config.l2))
            self._l1_prefetchers.append(make_prefetcher(config.l1_prefetcher))
            self._l2_prefetchers.append(make_prefetcher(l2_prefetcher_name))
        self.memory_reads = 0
        self.memory_writes = 0

    @staticmethod
    def _make_level(cache_config) -> Cache:
        # Upper levels always use plain LRU, as in the paper's trace setup.
        from repro.cache.replacement.lru import LRUPolicy

        policy = LRUPolicy()
        policy.bind(cache_config)
        return Cache(cache_config, policy, detailed=False)

    # -- public API ---------------------------------------------------------

    def access(self, record: TraceRecord) -> int:
        """Run one demand access through the hierarchy.

        Returns the level that served it (1=L1, 2=L2, 3=LLC, 4=memory).
        Prefetchers are trained and their requests issued as side effects.
        """
        if record.access_type not in (AccessType.LOAD, AccessType.RFO):
            raise ValueError("hierarchy.access expects demand accesses only")
        core = record.core
        result_l1 = self.l1d[core].access(record)
        if result_l1.has_writeback:
            self._writeback(core, L2, result_l1.evicted_line_address)
        if result_l1.hit:
            level = L1
        else:
            level = self._access_l2(core, record)
        for request in self._l1_prefetchers[core].observe(record, level == L1):
            self._issue_l1_prefetch(core, record.pc, request)
        return level

    def warmed_copyless_stats(self) -> dict:
        """Headline statistics for reporting."""
        return {
            "llc": self.llc.stats.summary(),
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
        }

    def stats_summary(self) -> dict:
        """Per-level counters, private levels summed across cores.

        ``{"l1": summary, "l2": summary, "llc": summary,
        "memory_reads": N, "memory_writes": N}`` — the telemetry layer
        folds this into level-labelled counters after pass 1.
        """

        def _merged(caches) -> dict:
            totals = {}
            for cache in caches:
                for key, value in cache.stats.summary().items():
                    if isinstance(value, int):
                        totals[key] = totals.get(key, 0) + value
            return totals

        return {
            "l1": _merged(self.l1d),
            "l2": _merged(self.l2),
            "llc": _merged([self.llc]),
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
        }

    def reset_stats(self) -> None:
        """Zero all statistics (after cache warm-up)."""
        self.llc.reset_stats()
        for cache in self.l1d + self.l2:
            cache.reset_stats()
        self.memory_reads = 0
        self.memory_writes = 0

    # -- internal paths -------------------------------------------------------

    def _access_l2(self, core: int, record: TraceRecord) -> int:
        result = self.l2[core].access(record)
        if result.has_writeback:
            self._writeback(core, LLC, result.evicted_line_address)
        hit = result.hit
        level = L2 if hit else self._access_llc(record)
        if record.access_type.is_demand:
            # Prefetchers train on demand traffic only (ChampSim behaviour).
            for request in self._l2_prefetchers[core].observe(record, hit):
                self._issue_l2_prefetch(core, record.pc, request)
        return level

    def _access_llc(self, record: TraceRecord) -> int:
        result = self.llc.access(record)
        if result.has_writeback:
            self.memory_writes += 1
        if result.evicted_line_address >= 0:
            self._back_invalidate(result.evicted_line_address)
        if result.hit:
            return LLC
        self.memory_reads += 1
        return MEMORY

    def _back_invalidate(self, line_address: int) -> None:
        """Inclusive mode: an LLC eviction invalidates every upper copy.

        A dirty upper-level copy is newer than anything below it, so its
        invalidation counts as a memory write (the data has nowhere else
        to live once the LLC line is gone).
        """
        if self.inclusion != "inclusive":
            return
        for cache in self.l1d + self.l2:
            _, was_dirty = cache.invalidate_line(line_address)
            if was_dirty:
                self.memory_writes += 1

    def _writeback(self, core: int, level: int, line_address: int) -> None:
        record = TraceRecord(
            address=line_address << OFFSET_BITS,
            pc=0,
            access_type=AccessType.WRITEBACK,
            instr_delta=0,
            core=core,
        )
        if level == L2:
            result = self.l2[core].access(record)
            if result.has_writeback:
                self._writeback(core, LLC, result.evicted_line_address)
        else:
            result = self.llc.access(record)
            if result.has_writeback:
                self.memory_writes += 1
            if result.evicted_line_address >= 0:
                self._back_invalidate(result.evicted_line_address)

    def _prefetch_record(self, core: int, pc: int, line_address: int) -> TraceRecord:
        return TraceRecord(
            address=line_address << OFFSET_BITS,
            pc=pc,
            access_type=AccessType.PREFETCH,
            instr_delta=0,
            core=core,
        )

    def _issue_l1_prefetch(self, core: int, pc: int, request) -> None:
        record = self._prefetch_record(core, pc, request.line_address)
        result = self.l1d[core].access(record)
        if result.has_writeback:
            self._writeback(core, L2, result.evicted_line_address)
        if not result.hit:
            self._access_l2(core, record)

    def _issue_l2_prefetch(self, core: int, pc: int, request) -> None:
        record = self._prefetch_record(core, pc, request.line_address)
        if request.fill_l2:
            result = self.l2[core].access(record)
            if result.has_writeback:
                self._writeback(core, LLC, result.evicted_line_address)
            if not result.hit:
                self._access_llc(record)
        else:
            # KPC-P low-confidence prefetch: LLC only, no L2 pollution.
            self._access_llc(record)
