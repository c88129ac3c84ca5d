"""Tests for CacheLine metadata (Table II per-line features)."""

from repro.cache import CacheLine, CacheSet
from repro.traces import AccessType, TraceRecord

from tests.conftest import load, prefetch, rfo


def filled_line(access=None) -> CacheLine:
    access = access or load(5, pc=0x40)
    line = CacheLine()
    line.fill(tag=1, line_address=access.line_address, access=access, now=0)
    return line


class TestFill:
    def test_basic_state(self):
        access = load(5, pc=0x40)
        line = filled_line(access)
        assert line.valid
        assert line.tag == 1
        assert line.line_address == 5
        assert not line.dirty
        assert line.insertion_pc == 0x40

    def test_write_access_sets_dirty(self):
        line = CacheLine()
        line.fill(tag=0, line_address=3, access=rfo(3), now=0)
        assert line.dirty

    def test_counters_reset(self):
        line = filled_line()
        line.hits_since_insertion = 5
        line.preuse = 4
        line.fill(tag=2, line_address=7, access=load(7), now=9)
        assert line.hits_since_insertion == 0
        assert line.inserted_at == 9  # both ages read 0 at set access 9
        assert line.last_access_at == 9
        assert line.preuse == 0

    def test_access_counts_record_insertion_type(self):
        line = CacheLine()
        line.fill(tag=0, line_address=3, access=prefetch(3), now=0)
        assert line.access_counts[AccessType.PREFETCH] == 1
        assert line.access_counts[AccessType.LOAD] == 0
        assert line.insertion_type is AccessType.PREFETCH

    def test_offset_captured_from_address(self):
        access = TraceRecord(address=5 * 64 + 17, access_type=AccessType.LOAD)
        line = CacheLine()
        line.fill(tag=1, line_address=access.line_address, access=access,
                  now=0)
        assert line.offset == 17


class TestTouch:
    def test_preuse_is_age_at_hit(self):
        line = filled_line()
        line.touch(load(5), now=7)  # 7 set accesses since the fill
        assert line.preuse == 7
        assert line.last_access_at == 7
        line.touch(load(5), now=10)
        assert line.preuse == 3

    def test_hits_and_counts_increment(self):
        line = filled_line()
        line.touch(load(5), now=1)
        line.touch(prefetch(5), now=2)
        assert line.hits_since_insertion == 2
        assert line.access_counts[AccessType.LOAD] == 2  # fill + hit
        assert line.access_counts[AccessType.PREFETCH] == 1

    def test_last_access_type_tracks_latest(self):
        line = filled_line()
        line.touch(prefetch(5), now=1)
        assert line.last_access_type is AccessType.PREFETCH
        line.touch(load(5), now=2)
        assert line.last_access_type is AccessType.LOAD

    def test_write_hit_sets_dirty(self):
        line = filled_line()
        assert not line.dirty
        line.touch(rfo(5), now=1)
        assert line.dirty

    def test_read_hit_preserves_dirty(self):
        line = CacheLine()
        line.fill(tag=0, line_address=3, access=rfo(3), now=0)
        line.touch(load(3), now=1)
        assert line.dirty


class TestInvalidate:
    def test_clears_identity(self):
        cache_set = CacheSet(0, 4)
        cache_set.fill(3, 1, 5, rfo(5))
        cache_set.invalidate(3)
        line = cache_set.lines[3]
        assert not line.valid
        assert line.tag == -1
        assert line.line_address == -1
        assert not line.dirty
        assert cache_set.find(1) is None
        assert cache_set.recencies() == [0, 0, 0, 0]
