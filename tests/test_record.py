"""Tests for repro.traces.record."""

import dataclasses

import pytest

from repro.traces import (
    AccessType,
    LINE_SIZE,
    OFFSET_BITS,
    Trace,
    TraceRecord,
    access_type_from_name,
)


class TestAccessType:
    def test_demand_types(self):
        assert AccessType.LOAD.is_demand
        assert AccessType.RFO.is_demand
        assert not AccessType.PREFETCH.is_demand
        assert not AccessType.WRITEBACK.is_demand

    def test_short_names_round_trip(self):
        for access_type in AccessType:
            assert access_type_from_name(access_type.short_name) is access_type

    def test_short_names_match_paper(self):
        assert AccessType.LOAD.short_name == "LD"
        assert AccessType.RFO.short_name == "RFO"
        assert AccessType.PREFETCH.short_name == "PR"
        assert AccessType.WRITEBACK.short_name == "WB"

    def test_from_name_is_case_insensitive(self):
        assert access_type_from_name("ld") is AccessType.LOAD
        assert access_type_from_name("wb") is AccessType.WRITEBACK

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            access_type_from_name("XYZ")

    def test_values_are_stable(self):
        # access_counts lists index by these values; they must not change.
        assert [t.value for t in AccessType] == [0, 1, 2, 3]


class TestTraceRecord:
    def test_line_address_strips_offset(self):
        record = TraceRecord(address=0x12345)
        assert record.line_address == 0x12345 >> OFFSET_BITS

    def test_offset_is_low_bits(self):
        record = TraceRecord(address=LINE_SIZE * 7 + 13)
        assert record.offset == 13
        assert record.line_address == 7

    def test_is_write(self):
        assert TraceRecord(address=0, access_type=AccessType.RFO).is_write
        assert TraceRecord(address=0, access_type=AccessType.WRITEBACK).is_write
        assert not TraceRecord(address=0, access_type=AccessType.LOAD).is_write
        assert not TraceRecord(address=0, access_type=AccessType.PREFETCH).is_write

    def test_defaults(self):
        record = TraceRecord(address=64)
        assert record.pc == 0
        assert record.access_type is AccessType.LOAD
        assert record.instr_delta == 1
        assert record.core == 0

    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(TraceRecord)]
    )
    def test_records_are_immutable(self, name):
        record = TraceRecord(address=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 128)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert record == TraceRecord(address=64)


class TestConstructor:
    """The written-out ``__init__`` behaves like the generated one did."""

    def test_positional_and_keyword_calls_agree(self):
        positional = TraceRecord(0x1234, 0x400, AccessType.RFO, 9, 2)
        keyword = TraceRecord(core=2, instr_delta=9,
                              access_type=AccessType.RFO, pc=0x400,
                              address=0x1234)
        assert positional == keyword
        assert dataclasses.astuple(positional) == dataclasses.astuple(keyword)
        assert positional.line_address == 0x1234 >> OFFSET_BITS

    def test_equality_and_hash_ignore_line_address(self):
        record = TraceRecord(address=0x1000, pc=4)
        other = TraceRecord(address=0x1000, pc=4)
        # Only a slot's own descriptor can write a frozen record.
        TraceRecord.line_address.__set__(other, -1)
        assert record == other
        assert hash(record) == hash(other)
        assert record != TraceRecord(address=0x1040, pc=4)
        assert [field.name for field in dataclasses.fields(TraceRecord)
                if field.compare] == [
            "address", "pc", "access_type", "instr_delta", "core"]

    def test_repr_is_pinned(self):
        record = TraceRecord(0x1234, 0x400, AccessType.PREFETCH, 0, 3)
        assert repr(record) == (
            "TraceRecord(address=4660, pc=1024, "
            "access_type=<AccessType.PREFETCH: 2>, instr_delta=0, core=3, "
            "line_address=72)"
        )

    def test_dataclasses_replace_recomputes_line_address(self):
        record = TraceRecord(0x1234, 0x400, AccessType.RFO, 9, 2)
        moved = dataclasses.replace(record, address=0x8000)
        assert moved == TraceRecord(0x8000, 0x400, AccessType.RFO, 9, 2)
        assert moved.line_address == 0x8000 >> OFFSET_BITS
        with pytest.raises(ValueError):
            dataclasses.replace(record, line_address=5)


class TestTrace:
    def test_len_iter_getitem(self):
        records = [TraceRecord(address=i * 64) for i in range(5)]
        trace = Trace("t", records)
        assert len(trace) == 5
        assert list(trace) == records
        assert trace[2] is records[2]

    def test_instruction_count(self):
        records = [TraceRecord(address=0, instr_delta=3) for _ in range(4)]
        assert Trace("t", records).instruction_count == 12

    def test_footprint_lines(self):
        records = [TraceRecord(address=a) for a in (0, 10, 64, 65, 128)]
        # lines: 0, 0, 1, 1, 2
        assert Trace("t", records).footprint_lines() == 3

    def test_empty_trace(self):
        trace = Trace("empty")
        assert len(trace) == 0
        assert trace.instruction_count == 0
        assert trace.footprint_lines() == 0
