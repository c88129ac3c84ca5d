"""Three-level write-back cache hierarchy (Table III).

Private per-core L1D and L2, shared LLC, next-line prefetcher at L1 and
IP-stride at L2 (both configurable).  The hierarchy is non-inclusive, as in
ChampSim: writebacks allocate at the next level, dirty LLC evictions go to
memory.  Only the LLC replacement policy is pluggable; the private levels
are plain LRU (:class:`PrivateLevel`), as in the paper, which generates its
traces with an LRU hierarchy.

The LLC reference stream produced by this hierarchy is independent of the
LLC's own replacement policy (upper levels never observe LLC state), which is
what makes two-pass Belady simulation exact.  Pass 1 therefore records that
stream without simulating an LLC: ``CacheHierarchy(config, None)`` runs only
L1/L2 and the prefetchers and appends every access that leaves L2 to
:attr:`CacheHierarchy.llc_records`; each LLC policy then replays the stream.
"""

from __future__ import annotations

from repro.cache.cache import Cache
from repro.cache.config import HierarchyConfig
from repro.cache.stats import CacheStats
from repro.cpu.prefetcher import make_prefetcher
from repro.traces.record import AccessType, OFFSET_BITS, TraceRecord

#: Levels returned by :meth:`CacheHierarchy.access`.
L1, L2, LLC, MEMORY = 1, 2, 3, 4

#: :meth:`PrivateLevel.access` outcomes other than a dirty victim's line
#: address (line addresses are never negative).
HIT, MISS = -1, -2

_WRITES = (AccessType.RFO, AccessType.WRITEBACK)


class PrivateLevel:
    """A private L1D or L2: plain LRU, with no policy object and no lines.

    Each set is one insertion-ordered ``line_address -> dirty`` dict, least
    recently used first: a hit moves the line to the end, and a miss on a
    full set evicts the first.  Counters go to a :class:`CacheStats`, as a
    :class:`~repro.cache.cache.Cache`'s do.
    """

    def __init__(self, config) -> None:
        self.ways = config.ways
        self.sets = [{} for _ in range(config.num_sets)]
        self._set_mask = config.num_sets - 1
        self.stats = CacheStats()

    def access(self, line_address: int, access_type: AccessType) -> int:
        """Look up the line; on a miss, allocate it as the MRU line.

        Returns :data:`HIT`, :data:`MISS`, or the line address of the dirty
        victim the miss evicted, which the caller writes back.
        """
        lines = self.sets[line_address & self._set_mask]
        write = access_type in _WRITES
        dirty = lines.pop(line_address, None)
        if dirty is not None:
            lines[line_address] = dirty or write
            self.stats.hits[access_type] += 1
            return HIT
        stats = self.stats
        stats.misses[access_type] += 1
        outcome = MISS
        if len(lines) == self.ways:
            victim = next(iter(lines))
            stats.evictions += 1
            if lines.pop(victim):
                stats.dirty_evictions += 1
                outcome = victim
        lines[line_address] = write
        return outcome

    def contains(self, line_address: int) -> bool:
        """True if ``line_address`` is currently cached (no state change)."""
        return line_address in self.sets[line_address & self._set_mask]

    def invalidate_line(self, line_address: int):
        """Drop ``line_address``; returns (was_present, was_dirty)."""
        dirty = self.sets[line_address & self._set_mask].pop(line_address, None)
        return dirty is not None, bool(dirty)

    def reset_stats(self) -> None:
        """Zero the statistics counters (after warm-up)."""
        self.stats.reset()


class CacheHierarchy:
    """A multi-core cache hierarchy with a pluggable LLC policy.

    ``llc_policy=None`` builds a recording hierarchy: no LLC is simulated,
    every access that leaves L2 (demand, prefetch or writeback) is appended
    to :attr:`llc_records`, and :meth:`access` returns :data:`LLC` for a
    demand that reaches it (whether it hits is decided when the stream is
    replayed).  Otherwise :attr:`llc` is a :class:`Cache` under that policy
    and :attr:`llc_records` is None.  Back-invalidation reads LLC state, so
    an inclusive hierarchy cannot record.
    """

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
        if llc_policy is None and inclusion == "inclusive":
            raise ValueError(
                "an inclusive hierarchy back-invalidates from LLC state, "
                "so it needs an LLC policy"
            )
        self.inclusion = inclusion
        self.config = config
        self.llc = None
        self.llc_records = None
        if llc_policy is None:
            self.llc_records = []
        else:
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
            self.l1d.append(PrivateLevel(config.l1d))
            self.l2.append(PrivateLevel(config.l2))
            self._l1_prefetchers.append(make_prefetcher(config.l1_prefetcher))
            self._l2_prefetchers.append(make_prefetcher(l2_prefetcher_name))
        self.memory_reads = 0
        self.memory_writes = 0

    # -- public API ---------------------------------------------------------

    def access(self, record: TraceRecord) -> int:
        """Run one demand access through the hierarchy.

        Returns the level that served it (1=L1, 2=L2, 3=LLC, 4=memory).
        Prefetchers are trained and their requests issued as side effects.
        """
        if record.access_type not in (AccessType.LOAD, AccessType.RFO):
            raise ValueError("hierarchy.access expects demand accesses only")
        core = record.core
        outcome = self.l1d[core].access(record.line_address, record.access_type)
        if outcome >= 0:
            self._writeback(core, L2, outcome)
        level = L1 if outcome == HIT else self._access_l2(core, record)
        for request in self._l1_prefetchers[core].observe(record, level == L1):
            self._issue_l1_prefetch(core, record.pc, request.line_address)
        return level

    def stats_summary(self) -> dict:
        """Per-level counters, private levels summed across cores.

        ``{"l1": summary, "l2": summary, "llc": summary,
        "memory_reads": N, "memory_writes": N}`` — the telemetry layer
        folds this into level-labelled counters after pass 1.  A recording
        hierarchy has no LLC or memory counters: its ``"llc"`` entry is
        ``{"accesses": len(llc_records)}``, the recorded stream's length,
        and the memory entries are absent.
        """

        def _merged(caches) -> dict:
            totals = {}
            for cache in caches:
                for key, value in cache.stats.summary().items():
                    if isinstance(value, int):
                        totals[key] = totals.get(key, 0) + value
            return totals

        summary = {"l1": _merged(self.l1d), "l2": _merged(self.l2)}
        if self.llc is None:
            summary["llc"] = {"accesses": len(self.llc_records)}
            return summary
        summary["llc"] = _merged([self.llc])
        summary["memory_reads"] = self.memory_reads
        summary["memory_writes"] = self.memory_writes
        return summary

    def reset_stats(self) -> None:
        """Zero all statistics (after cache warm-up).

        A recording hierarchy keeps its recorded stream.
        """
        if self.llc is not None:
            self.llc.reset_stats()
        for cache in self.l1d + self.l2:
            cache.reset_stats()
        self.memory_reads = 0
        self.memory_writes = 0

    # -- internal paths -------------------------------------------------------

    def _access_l2(self, core: int, record: TraceRecord) -> int:
        """A demand L1 miss at L2, which trains the L2 prefetcher."""
        outcome = self.l2[core].access(record.line_address, record.access_type)
        if outcome >= 0:
            self._writeback(core, LLC, outcome)
        hit = outcome == HIT
        level = L2 if hit else self._access_llc(record)
        # Prefetchers train on demand traffic only (ChampSim behaviour).
        for request in self._l2_prefetchers[core].observe(record, hit):
            if request.fill_l2:
                self._prefetch_l2(core, record.pc, request.line_address)
            else:
                # KPC-P low-confidence prefetch: LLC only, no L2 pollution.
                self._access_llc(
                    self._prefetch_record(core, record.pc, request.line_address)
                )
        return level

    def _access_llc(self, record: TraceRecord) -> int:
        """Send ``record`` to the LLC; returns the level that served it."""
        if self.llc is None:
            self.llc_records.append(record)
            return LLC
        result = self.llc.access(record)
        if result.has_writeback:
            self.memory_writes += 1
        if result.evicted_line_address >= 0:
            self._back_invalidate(result.evicted_line_address)
        if result.hit:
            return LLC
        if record.access_type != AccessType.WRITEBACK:
            # A writeback allocates without fetching the line.
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
        if level == L2:
            outcome = self.l2[core].access(line_address, AccessType.WRITEBACK)
            if outcome >= 0:
                self._writeback(core, LLC, outcome)
            return
        self._access_llc(
            TraceRecord(
                address=line_address << OFFSET_BITS,
                pc=0,
                access_type=AccessType.WRITEBACK,
                instr_delta=0,
                core=core,
            )
        )

    def _prefetch_record(self, core: int, pc: int, line_address: int) -> TraceRecord:
        return TraceRecord(
            address=line_address << OFFSET_BITS,
            pc=pc,
            access_type=AccessType.PREFETCH,
            instr_delta=0,
            core=core,
        )

    def _issue_l1_prefetch(self, core: int, pc: int, line_address: int) -> None:
        outcome = self.l1d[core].access(line_address, AccessType.PREFETCH)
        if outcome >= 0:
            self._writeback(core, L2, outcome)
        if outcome != HIT:
            self._prefetch_l2(core, pc, line_address)

    def _prefetch_l2(self, core: int, pc: int, line_address: int) -> None:
        outcome = self.l2[core].access(line_address, AccessType.PREFETCH)
        if outcome >= 0:
            self._writeback(core, LLC, outcome)
        if outcome != HIT:
            self._access_llc(self._prefetch_record(core, pc, line_address))
