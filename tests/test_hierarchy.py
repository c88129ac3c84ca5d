"""Tests for the 3-level cache hierarchy."""

import random

import pytest

from repro.cache import CacheConfig, CacheHierarchy, HierarchyConfig, L1, L2, LLC, MEMORY
from repro.cache.replacement import make_policy
from repro.traces import AccessType, TraceRecord

from tests.conftest import load, rfo


def tiny_hierarchy(num_cores=1, l1_pf="none", l2_pf="none"):
    config = HierarchyConfig(
        l1i=CacheConfig("L1I", 2 * 64 * 2, 2, latency=4),
        l1d=CacheConfig("L1D", 2 * 64 * 2, 2, latency=4),  # 2 sets x 2 ways
        l2=CacheConfig("L2", 4 * 64 * 4, 4, latency=12),  # 4 sets x 4 ways
        llc=CacheConfig("LLC", 8 * 64 * 8, 8, latency=26),  # 8 sets x 8 ways
        memory_latency=200,
        l1_prefetcher=l1_pf,
        l2_prefetcher=l2_pf,
        num_cores=num_cores,
    )
    policy = make_policy("lru")
    return CacheHierarchy(config, policy)


class TestLevels:
    def test_cold_access_goes_to_memory(self):
        hierarchy = tiny_hierarchy()
        assert hierarchy.access(load(0)) == MEMORY
        assert hierarchy.memory_reads == 1

    def test_second_access_hits_l1(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(load(0))
        assert hierarchy.access(load(0)) == L1

    def test_l1_eviction_falls_back_to_l2(self):
        hierarchy = tiny_hierarchy()
        # L1: 2 sets x 2 ways. Lines 0,2,4 map to L1 set 0; 3rd evicts 1st.
        for line in (0, 2, 4):
            hierarchy.access(load(line))
        # line 0 evicted from L1 but still in L2.
        assert hierarchy.access(load(0)) == L2

    def test_llc_hit_after_l2_eviction(self):
        hierarchy = tiny_hierarchy()
        # L2: 4 sets x 4 ways; lines 0,4,...,16 map to L2 set 0.
        for line in (0, 4, 8, 12, 16, 20):
            hierarchy.access(load(line))
        # line 0 is gone from L1 and L2 but lives in the 8-way LLC.
        assert hierarchy.access(load(0)) == LLC

    def test_rejects_non_demand_records(self):
        hierarchy = tiny_hierarchy()
        with pytest.raises(ValueError):
            hierarchy.access(TraceRecord(address=0, access_type=AccessType.PREFETCH))


class TestWritebacks:
    def test_dirty_line_propagates_to_memory(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(rfo(0))  # dirty in L1
        # Push line 0 out of L1, L2, and LLC with conflicting lines.
        for line in range(8, 8 + 64 * 8, 8):
            hierarchy.access(load(line))
        # Each level saw the writeback; ultimately memory got written.
        assert hierarchy.memory_writes >= 1

    def test_writeback_allocates_in_llc(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(rfo(0))
        # Force L1 + L2 eviction of line 0 (same L1/L2 sets used).
        for line in (4, 8, 12, 16, 20):
            hierarchy.access(load(line))
        assert hierarchy.llc.stats.hits[AccessType.WRITEBACK] + hierarchy.llc.stats.misses[AccessType.WRITEBACK] >= 1


class TestPrefetchers:
    def test_l2_prefetches_reach_llc_as_prefetch_type(self):
        hierarchy = tiny_hierarchy(l2_pf="ip_stride")
        line = 0
        for _ in range(20):
            hierarchy.access(load(line, pc=4))
            line += 3
        prefetch_traffic = (
            hierarchy.llc.stats.hits[AccessType.PREFETCH]
            + hierarchy.llc.stats.misses[AccessType.PREFETCH]
        )
        assert prefetch_traffic > 0

    def test_next_line_prefetcher_improves_l1_hits(self):
        misses_without = 0
        hierarchy = tiny_hierarchy(l1_pf="none")
        for line in range(40):
            if hierarchy.access(load(line)) != L1:
                misses_without += 1
        misses_with = 0
        hierarchy = tiny_hierarchy(l1_pf="next_line")
        for line in range(40):
            if hierarchy.access(load(line)) != L1:
                misses_with += 1
        assert misses_with < misses_without


class TestMulticore:
    def test_private_l1s_shared_llc(self):
        hierarchy = tiny_hierarchy(num_cores=2)
        hierarchy.access(load(0, core=0))
        # Core 1 misses its private L1/L2 but hits the shared LLC.
        assert hierarchy.access(load(0, core=1)) == LLC
        # And now hits its own L1.
        assert hierarchy.access(load(0, core=1)) == L1

    def test_stats_reset(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(load(0))
        hierarchy.reset_stats()
        assert hierarchy.llc.stats.total_accesses == 0
        assert hierarchy.memory_reads == 0


class TestStreamIndependence:
    """The property the two-pass Belady/replay design rests on."""

    @pytest.mark.parametrize("num_cores", [1, 2])
    @pytest.mark.parametrize("l2_prefetcher", ["ip_stride", "kpc_p", "none"])
    def test_llc_stream_is_policy_independent(self, num_cores, l2_prefetcher):
        config = HierarchyConfig(
            l1i=CacheConfig("L1I", 2 * 64 * 2, 2, latency=4),
            l1d=CacheConfig("L1D", 2 * 64 * 2, 2, latency=4),
            l2=CacheConfig("L2", 4 * 64 * 4, 4, latency=12),
            llc=CacheConfig("LLC", 8 * 64 * 8, 8, latency=26),
            l1_prefetcher="next_line",
            l2_prefetcher=l2_prefetcher,
            num_cores=num_cores,
        )
        rng = random.Random(3)
        records = []
        strided = [0] * num_cores
        for _ in range(800):
            core = rng.randrange(num_cores)
            if rng.random() < 0.5:
                line, pc = rng.randrange(200), 0
            else:  # a per-core stride the L2 prefetcher can learn
                strided[core] += 3
                line, pc = strided[core], 4
            kind = AccessType.RFO if rng.random() < 0.3 else AccessType.LOAD
            records.append(TraceRecord(address=line * 64, pc=pc,
                                       access_type=kind, core=core))

        def run(policy_name):
            """(LLC stream, serving level of each access, LLC folded in)."""
            if policy_name is None:  # the recording hierarchy
                hierarchy = CacheHierarchy(config, None)
                stream = hierarchy.llc_records
            else:
                hierarchy = CacheHierarchy(config, make_policy(policy_name))
                stream = []
                hierarchy.llc.add_access_observer(
                    lambda access, hit: stream.append(access))
            levels = [min(hierarchy.access(record), LLC) for record in records]
            return stream, levels

        recorded = run(None)
        assert {record.access_type for record in recorded[0]} == set(AccessType)
        assert run("lru") == run("mru") == run("srrip") == recorded


class TestKPCPPrefetchPath:
    def test_low_confidence_prefetch_fills_llc_only(self):
        hierarchy = tiny_hierarchy(l2_pf="kpc_p")
        # Train a stride so KPC-P fires at low confidence first (threshold 1,
        # high_confidence 3): early prefetches have fill_l2=False.
        line = 0
        for _ in range(3):
            hierarchy.access(load(line, pc=4))
            line += 2
        # After the low-confidence prefetch fired, its target line should be
        # in the LLC but not in L2.
        prefetched = line  # the next stride target
        in_llc = hierarchy.llc.contains(prefetched)
        in_l2 = hierarchy.l2[0].contains(prefetched)
        if in_llc:  # prefetch fired
            assert not in_l2

    def test_high_confidence_prefetch_fills_l2(self):
        hierarchy = tiny_hierarchy(l2_pf="kpc_p")
        line = 0
        for _ in range(12):  # confidence saturates at 3
            hierarchy.access(load(line, pc=4))
            line += 2
        target = line
        # The stride is confident now: prefetches land in L2 too.
        assert hierarchy.l2[0].contains(target) or hierarchy.l2[0].contains(
            target - 2
        )


class TestWritebackAllocation:
    def test_writeback_miss_allocates_dirty_line(self):
        hierarchy = tiny_hierarchy()
        hierarchy.access(rfo(0))
        # Evict line 0 out of L1 and L2 so its writeback reaches the LLC...
        for line in (4, 8, 12, 16, 20):
            hierarchy.access(load(line))
        # ...then out of the LLC too, and re-dirty the path: finally check
        # the LLC's writeback-allocate behaviour directly.
        from repro.traces.record import AccessType, TraceRecord

        wb = TraceRecord(address=999 * 64, access_type=AccessType.WRITEBACK)
        result = hierarchy.llc.access(wb)
        assert not result.hit  # compulsory miss
        assert hierarchy.llc.contains(999)  # write-allocate
        set_index = hierarchy.llc.config.set_index(999)
        way = hierarchy.llc.sets[set_index].find(hierarchy.llc.config.tag(999))
        assert hierarchy.llc.sets[set_index].lines[way].dirty
