"""Set-associative cache with pluggable replacement policy.

The cache is purely functional (no timing); the hierarchy and timing model
live in :mod:`repro.cache.hierarchy` and :mod:`repro.cpu`.  Observers can be
attached to record the access stream (for Belady precomputation and the
paper's Figure 4 analysis) and replacement decisions (Figures 5–7, the
decision tracer).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cache.cache_set import CacheSet
from repro.cache.replacement.base import BYPASS
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.stats import CacheStats
from repro.sanitize import resolve_mode
from repro.sanitize.errors import PolicyContractError


class AccessResult(NamedTuple):
    """Outcome of one cache access (immutable; hits and non-evicting
    misses share one instance each)."""

    hit: bool
    bypassed: bool = False
    evicted_line_address: int = -1
    evicted_dirty: bool = False

    @property
    def has_writeback(self) -> bool:
        """True if the access displaced a dirty line that must go downstream."""
        return self.evicted_line_address >= 0 and self.evicted_dirty


HIT = AccessResult(hit=True)
MISS = AccessResult(hit=False)
BYPASSED = AccessResult(hit=False, bypassed=True)


class Cache:
    """A single cache level.

    The cache checks the policy's contract where it uses the answer: the
    way ``victim`` returns must be in ``range(ways)``, or :data:`BYPASS`
    when ``allow_bypass`` is set (anything else, ``None`` included, is out
    of range).  The sanitizer mode decides what a violation does:
    ``strict`` raises :class:`~repro.sanitize.errors.PolicyContractError`;
    ``normal`` records it in :attr:`violations` once and swaps in LRU
    (the set's own recency stack) for the rest of the run, so the
    offending policy gets no further hook calls; ``off`` records nothing.

    Args:
        config: Cache geometry (:class:`repro.cache.config.CacheConfig`).
        policy: A replacement policy instance, already bound to ``config``
            by the caller (the cache never calls ``bind``).
        allow_bypass: Honour :data:`BYPASS` returned by the policy.  When
            False a bypass request falls back to LRU eviction.
        detailed: Maintain the full Table II per-line metadata (preuse,
            per-type counts, PCs, types, offset, core), which RL features
            and analysis read.  Policies with ``needs_line_metadata =
            False`` run with ``detailed=False``, where a fill writes only
            the line's identity, dirty bit and age stamps.  Ages and
            recency ranks are exact either way.
        sanitize: What a contract violation does ("off" / "normal" /
            "strict"; None = ``REPRO_SANITIZE`` or the package default).
    """

    def __init__(
        self,
        config,
        policy,
        allow_bypass: bool = False,
        detailed: bool = True,
        sanitize: str = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.allow_bypass = allow_bypass
        self.detailed = detailed
        self.sanitize = resolve_mode(sanitize)
        self.violations = []  #: recorded contract-violation messages
        self._ways = range(config.ways)
        num_sets = config.num_sets
        self._set_mask = num_sets - 1
        self._tag_shift = (num_sets - 1).bit_length()
        self.sets = [CacheSet(i, config.ways) for i in range(num_sets)]
        self.stats = CacheStats()
        self._seen_lines = set()
        self.access_observers = []
        self.decision_observers = []

    # -- observers --------------------------------------------------------

    def add_access_observer(self, callback) -> None:
        """``callback(access, hit)`` fires on every access to this cache."""
        self.access_observers.append(callback)

    def add_decision_observer(self, callback) -> None:
        """``callback(cache_set, way, victim_line, access)`` per eviction.

        Fires with the full set state *before* the eviction, so the
        observer can read every resident line, its age and its recency
        rank (the decision tracer grades the chosen way against the
        alternatives).  When no observer is registered the only cost is an
        empty-list ``for`` per eviction.
        """
        self.decision_observers.append(callback)

    # -- main entry point ---------------------------------------------------

    def access(self, access) -> AccessResult:
        """Look up ``access``; on a miss, allocate (evicting if needed)."""
        line_address = access.line_address
        cache_set = self.sets[line_address & self._set_mask]
        tag = line_address >> self._tag_shift
        cache_set.accesses += 1
        way = cache_set.stack.get(tag)

        if way is not None:
            result = self._handle_hit(cache_set, tag, way, access)
        else:
            result = self._handle_miss(cache_set, tag, access)

        for callback in self.access_observers:
            callback(access, result.hit)
        return result

    def _handle_hit(self, cache_set, tag: int, way: int, access) -> AccessResult:
        cache_set.accesses_since_miss += 1
        stack = cache_set.stack
        del stack[tag]
        stack[tag] = way
        line = cache_set.lines[way]
        if self.detailed:
            line.touch(access, cache_set.accesses)
        else:
            line.last_access_at = cache_set.accesses
            if access.is_write:
                line.dirty = True
        self.stats.hits[access.access_type] += 1
        self.policy.on_hit(cache_set.index, way, line, access)
        return HIT

    def _handle_miss(self, cache_set, tag: int, access) -> AccessResult:
        cache_set.accesses_since_miss = 0
        cache_set.misses += 1
        stats = self.stats
        stats.misses[access.access_type] += 1
        line_address = access.line_address
        if line_address not in self._seen_lines:
            self._seen_lines.add(line_address)
            stats.compulsory_misses += 1
        policy = self.policy
        set_index = cache_set.index
        policy.on_miss(set_index, access)

        stack = cache_set.stack
        if len(stack) < cache_set.ways:
            way = cache_set.free_way()
            result = MISS
        else:
            way = policy.victim(set_index, cache_set, access)
            if way not in self._ways:
                if way == BYPASS and self.allow_bypass:
                    stats.bypasses += 1
                    return BYPASSED
                way = self._reject_victim(cache_set, way)
                policy = self.policy
            victim_line = cache_set.lines[way]
            for callback in self.decision_observers:
                callback(cache_set, way, victim_line, access)
            policy.on_evict(set_index, way, victim_line, access)
            del stack[victim_line.tag]
            stats.evictions += 1
            if victim_line.dirty:
                stats.dirty_evictions += 1
            result = AccessResult(
                False, False, victim_line.line_address, victim_line.dirty
            )

        line = cache_set.lines[way]
        if self.detailed:
            cache_set.fill(way, tag, line_address, access)
        else:
            line.valid = True
            line.tag = tag
            line.line_address = line_address
            line.dirty = access.is_write
            line.inserted_at = line.last_access_at = cache_set.accesses
            stack[tag] = way
        policy.on_fill(set_index, way, line, access)
        return result

    # -- contract violations ------------------------------------------------

    def _reject_victim(self, cache_set, way):
        """The way to evict instead of ``way``, which is not in ``range(ways)``
        and not an authorised BYPASS."""
        if self.sanitize == "off":
            # Unchecked: an unauthorised BYPASS still falls back to LRU and
            # any other answer is used as returned.
            return cache_set.lru_way() if way == BYPASS else way
        if way == BYPASS:
            detail = "returned BYPASS but the cache does not allow bypass"
        else:
            detail = f"victim way {way!r} outside range(ways={cache_set.ways})"
        self._violate(cache_set.index, detail)
        return cache_set.lru_way()

    def _violate(self, set_index: int, detail: str) -> None:
        """Record a violation; raise in strict mode, else degrade to LRU."""
        # Imported lazily: violations are rare, and `import repro` does not
        # otherwise load the telemetry modules.
        from repro.telemetry import get_registry
        from repro.telemetry.decisions import active_trace

        policy = self.policy
        name = str(getattr(policy, "name", policy.__class__.__name__))
        error = PolicyContractError(name, detail, set_index=set_index)
        self.violations.append(str(error))
        get_registry().counter("sanitize.policy_violations", policy=name).inc()
        trace = active_trace()
        if trace is not None:
            trace.record_violation(name, detail, set_index)
        if self.sanitize == "strict":
            raise error
        # LRU needs no state beyond the set's recency stack; it keeps the
        # policy's name so results still name the policy the caller passed.
        fallback = LRUPolicy()
        fallback.name = name
        self.policy = fallback

    # -- inspection helpers -------------------------------------------------

    def _locate(self, line_address: int):
        """(set, tag) of ``line_address``."""
        return (self.sets[line_address & self._set_mask],
                line_address >> self._tag_shift)

    def contains(self, line_address: int) -> bool:
        """True if ``line_address`` is currently cached (no state change)."""
        cache_set, tag = self._locate(line_address)
        return tag in cache_set.stack

    def invalidate(self, line_address: int) -> bool:
        """Drop ``line_address`` if present; returns whether it was cached."""
        found, _ = self.invalidate_line(line_address)
        return found

    def invalidate_line(self, line_address: int):
        """Drop ``line_address``; returns (was_present, was_dirty).

        Used for back-invalidation in inclusive hierarchies, where a dirty
        upper-level copy must be written back on invalidation.
        """
        cache_set, tag = self._locate(line_address)
        way = cache_set.find(tag)
        if way is None:
            return False, False
        was_dirty = cache_set.lines[way].dirty
        cache_set.invalidate(way)
        return True, was_dirty

    def occupancy(self) -> float:
        """Fraction of lines currently valid."""
        valid = sum(len(cache_set.stack) for cache_set in self.sets)
        return valid / self.config.num_lines

    def reset_stats(self) -> None:
        """Zero the statistics counters (after warm-up)."""
        self.stats.reset()
