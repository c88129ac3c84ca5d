"""Tests for the inclusive-hierarchy mode (back-invalidation)."""

import random

import pytest

from repro.cache import CacheConfig, CacheHierarchy, HierarchyConfig
from repro.cache.hierarchy import PrivateLevel
from repro.cache.replacement import make_policy

from tests.conftest import load, rfo


def tiny_hierarchy(inclusion="inclusive", num_cores=1, llc_policy="lru"):
    config = HierarchyConfig(
        l1i=CacheConfig("L1I", 2 * 64 * 2, 2, latency=4),
        l1d=CacheConfig("L1D", 2 * 64 * 2, 2, latency=4),
        l2=CacheConfig("L2", 4 * 64 * 4, 4, latency=12),
        llc=CacheConfig("LLC", 8 * 64 * 8, 8, latency=26),
        l1_prefetcher="none",
        l2_prefetcher="none",
        num_cores=num_cores,
    )
    policy = make_policy(llc_policy)
    return CacheHierarchy(config, policy, inclusion=inclusion)


def resident_lines(cache):
    """Line addresses held by the LLC (a ``Cache``) or a ``PrivateLevel``."""
    if isinstance(cache, PrivateLevel):
        return {line for lines in cache.sets for line in lines}
    return {
        line.line_address
        for cache_set in cache.sets
        for line in cache_set.lines
        if line.valid
    }


class TestInclusion:
    def test_rejects_unknown_mode(self):
        config = HierarchyConfig.scaled(factor=64)
        with pytest.raises(ValueError):
            CacheHierarchy(config, make_policy("lru"), inclusion="exclusive")

    def test_recording_hierarchy_cannot_be_inclusive(self):
        # Back-invalidation reads LLC state, which a recording hierarchy
        # (no LLC policy) does not simulate.
        config = HierarchyConfig.scaled(factor=64)
        with pytest.raises(ValueError):
            CacheHierarchy(config, None, inclusion="inclusive")

    def test_upper_levels_subset_of_llc(self):
        hierarchy = tiny_hierarchy("inclusive")
        rng = random.Random(5)
        for _ in range(3000):
            hierarchy.access(load(rng.randrange(150)))
            llc_lines = resident_lines(hierarchy.llc)
            for upper in hierarchy.l1d + hierarchy.l2:
                assert resident_lines(upper) <= llc_lines

    def test_non_inclusive_mode_violates_inclusion(self):
        # With an MRU LLC (evicting recently-touched lines, which are the
        # ones upper levels hold), the default non-inclusive hierarchy
        # quickly violates inclusion — demonstrating the property the
        # inclusive mode enforces is not vacuous.
        hierarchy = tiny_hierarchy("non_inclusive", llc_policy="mru")
        rng = random.Random(5)
        violated = False
        for _ in range(3000):
            hierarchy.access(load(rng.randrange(150)))
            llc_lines = resident_lines(hierarchy.llc)
            for upper in hierarchy.l1d + hierarchy.l2:
                if not resident_lines(upper) <= llc_lines:
                    violated = True
        assert violated

    def test_dirty_back_invalidation_writes_memory(self):
        # An MRU LLC evicts line 0 while its dirty copy still sits in L1:
        # the back-invalidation must count a memory write.
        hierarchy = tiny_hierarchy("inclusive", llc_policy="mru")
        for line in range(8, 8 + 8 * 7, 8):  # pre-fill LLC set 0
            hierarchy.access(load(line))
        hierarchy.access(rfo(0))  # dirty in L1; MRU position in LLC
        writes_before = hierarchy.memory_writes
        hierarchy.access(load(8 * 20))  # same LLC set: MRU evicts line 0
        assert 0 not in resident_lines(hierarchy.llc)
        assert 0 not in resident_lines(hierarchy.l1d[0])
        assert hierarchy.memory_writes > writes_before

    def test_multicore_back_invalidation_hits_all_cores(self):
        hierarchy = tiny_hierarchy("inclusive", num_cores=2)
        hierarchy.access(load(0, core=0))
        hierarchy.access(load(0, core=1))
        # Evict line 0 from the LLC.
        for line in range(8, 8 + 8 * 10, 8):
            hierarchy.access(load(line, core=0))
        for cache in hierarchy.l1d + hierarchy.l2:
            assert 0 not in resident_lines(cache)
