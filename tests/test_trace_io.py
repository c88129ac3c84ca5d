"""Tests for trace file I/O."""

import pytest

from repro.sanitize.errors import TraceFormatError
from repro.traces.record import AccessType, Trace, TraceRecord
from repro.traces.trace_io import (
    TraceQuarantineWarning,
    load_trace,
    save_trace,
)


@pytest.fixture
def sample_trace():
    records = [
        TraceRecord(address=0x4000, pc=0x400812, access_type=AccessType.LOAD,
                    instr_delta=7, core=0),
        TraceRecord(address=0x4040, pc=0x400816, access_type=AccessType.RFO,
                    instr_delta=1, core=1),
        TraceRecord(address=0x8000, pc=0, access_type=AccessType.WRITEBACK,
                    instr_delta=0, core=0),
        TraceRecord(address=0xC000, pc=0x40081A, access_type=AccessType.PREFETCH,
                    instr_delta=0, core=2),
    ]
    return Trace("sample", records)


class TestRoundTrip:
    def test_plain_csv(self, tmp_path, sample_trace):
        path = tmp_path / "trace.csv"
        save_trace(sample_trace, path)
        loaded = load_trace(path)
        assert loaded.name == "sample"
        assert loaded.records == sample_trace.records

    def test_gzip(self, tmp_path, sample_trace):
        path = tmp_path / "trace.csv.gz"
        save_trace(sample_trace, path)
        loaded = load_trace(path)
        assert loaded.records == sample_trace.records

    def test_name_override(self, tmp_path, sample_trace):
        path = tmp_path / "t.csv"
        save_trace(sample_trace, path)
        assert load_trace(path, name="other").name == "other"


class TestFormat:
    def test_paper_record_layout(self, tmp_path, sample_trace):
        path = tmp_path / "t.csv"
        save_trace(sample_trace, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("pc,access_type,address")
        first = lines[2].split(",")
        assert first[0] == "0x400812"
        assert first[1] == "LD"
        assert first[2] == "0x4000"

    def test_three_column_traces_accepted(self, tmp_path):
        # The paper's own format has no instr_delta/core columns.
        path = tmp_path / "t.csv"
        path.write_text("0x400812,LD,0x4000\n0x0,WB,0x8000\n")
        trace = load_trace(path)
        assert len(trace) == 2
        assert trace[0].instr_delta == 1
        assert trace[1].access_type is AccessType.WRITEBACK

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0x400812,LD\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# a comment\n\n0x4,LD,0x40,2,0\n")
        trace = load_trace(path)
        assert len(trace) == 1


class TestBinaryFormat:
    def test_round_trip(self, tmp_path, sample_trace):
        from repro.traces.trace_io import load_trace_binary, save_trace_binary

        path = tmp_path / "trace.bin"
        save_trace_binary(sample_trace, path)
        loaded = load_trace_binary(path)
        assert loaded.name == sample_trace.name
        assert loaded.records == sample_trace.records

    def test_smaller_than_csv(self, tmp_path):
        from repro.traces.record import Trace, TraceRecord
        from repro.traces.trace_io import save_trace, save_trace_binary

        records = [
            TraceRecord(address=i * 64, pc=0x400812, instr_delta=5)
            for i in range(2000)
        ]
        trace = Trace("big", records)
        csv_path = tmp_path / "t.csv"
        bin_path = tmp_path / "t.bin"
        save_trace(trace, csv_path)
        save_trace_binary(trace, bin_path)
        assert bin_path.stat().st_size < csv_path.stat().st_size

    @pytest.mark.parametrize("field,value", [
        ("instr_delta", 0x10000),
        ("core", 256),
        ("address", 2**64),
    ])
    def test_value_outside_the_record_raises(self, tmp_path, sample_trace,
                                             field, value):
        # Fixed-width records used to clamp instr_delta to 0xFFFF, so a
        # round trip silently changed the trace.
        from dataclasses import replace

        from repro.traces.trace_io import save_trace_binary

        records = list(sample_trace.records)
        records[1] = replace(records[1], **{field: value})
        path = tmp_path / "trace.bin"
        with pytest.raises(ValueError, match=f"record 1: {field} {value}"):
            save_trace_binary(Trace("wide", records), path)

    def test_rejects_wrong_magic(self, tmp_path):
        from repro.traces.trace_io import load_trace_binary

        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_trace_binary(path)

    def test_rejects_truncated_file(self, tmp_path, sample_trace):
        from repro.traces.trace_io import load_trace_binary, save_trace_binary

        path = tmp_path / "trace.bin"
        save_trace_binary(sample_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ValueError):
            load_trace_binary(path)


class TestHardenedCsvIngestion:
    def test_unknown_access_type_names_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0x4,LD,0x40\n0x8,READ,0x80\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        message = str(excinfo.value)
        assert "line 2" in message
        assert "'READ'" in message

    def test_negative_instr_delta_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0x4,LD,0x40,-3,0\n")
        with pytest.raises(TraceFormatError, match="instr_delta"):
            load_trace(path)

    def test_negative_core_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0x4,LD,0x40,1,-1\n")
        with pytest.raises(TraceFormatError, match="core"):
            load_trace(path)

    @pytest.mark.parametrize("line,field", [
        ("0x4,LD,0x10000000000000000,1,0", "address"),
        ("0x10000000000000000,LD,0x40,1,0", "pc"),
        ("0x4,LD,0x40,4294967296,0", "instr_delta"),
        ("0x4,LD,0x40,1,65536", "core"),
    ])
    def test_value_wider_than_its_column_names_the_line(
        self, tmp_path, line, field
    ):
        # A record the prepared stream's columns cannot hold must stop at
        # load, not crash a sweep when the stream is pickled.
        path = tmp_path / "t.csv"
        path.write_text(f"0x4,LD,0x40,1,0\n{line}\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        message = str(excinfo.value)
        assert "line 2" in message
        assert field in message

    def test_largest_column_values_load(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "0xffffffffffffffff,PR,0xffffffffffffffff,4294967295,65535\n"
        )
        (record,) = load_trace(path).records
        assert record.address == record.pc == 2**64 - 1
        assert record.instr_delta == 2**32 - 1
        assert record.core == 2**16 - 1

    def test_non_numeric_field_names_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# header comment\n0x4,LD,banana\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(path)

    def test_wrong_field_count_is_a_trace_format_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0x4,LD,0x40,1\n")
        with pytest.raises(TraceFormatError, match="3 or 5"):
            load_trace(path)

    def test_quarantine_skips_and_warns_once(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "0x4,LD,0x40\n0x8,READ,0x80\nbroken\n0xC,WB,0xC0\n"
        )
        with pytest.warns(TraceQuarantineWarning, match="2 bad record"):
            trace = load_trace(path, quarantine=True)
        assert len(trace) == 2
        assert trace[0].line_address == 1
        assert trace[1].access_type is AccessType.WRITEBACK

    def test_quarantine_counts_into_telemetry(self, tmp_path):
        from repro import telemetry

        path = tmp_path / "t.csv"
        path.write_text("0x4,LD,0x40\nnope\n")
        registry = telemetry.MetricsRegistry()
        telemetry.configure(registry=registry)
        try:
            with pytest.warns(TraceQuarantineWarning):
                load_trace(path, quarantine=True)
        finally:
            telemetry.shutdown()
        assert registry.snapshot()["counters"].get("trace.quarantined") == 1


class TestHardenedBinaryIngestion:
    def test_zero_byte_file(self, tmp_path):
        from repro.traces.trace_io import load_trace_binary

        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="empty file"):
            load_trace_binary(path)

    def test_cut_mid_record_reports_offset_and_record_index(
        self, tmp_path, sample_trace
    ):
        # Regression: this used to escape as a bare struct.error (or a
        # silent short read), not a typed, located TraceFormatError.
        from repro.traces.trace_io import (
            _RECORD_STRUCT,
            load_trace_binary,
            save_trace_binary,
        )

        path = tmp_path / "trace.bin"
        save_trace_binary(sample_trace, path)
        data = path.read_bytes()
        header = len(data) - len(sample_trace.records) * _RECORD_STRUCT.size
        # Cut 7 bytes into the third record (index 2).
        path.write_bytes(data[: header + 2 * _RECORD_STRUCT.size + 7])
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace_binary(path)
        message = str(excinfo.value)
        assert "byte offset" in message
        assert "record 2" in message
        assert "cut 7 bytes into a record" in message

    def test_truncated_header_is_typed(self, tmp_path):
        from repro.traces.trace_io import load_trace_binary

        path = tmp_path / "t.bin"
        path.write_bytes(b"RPTR\x01")  # magic + version, no name length
        with pytest.raises(TraceFormatError, match="truncated header"):
            load_trace_binary(path)

    def test_unsupported_version(self, tmp_path):
        from repro.traces.trace_io import load_trace_binary

        path = tmp_path / "t.bin"
        path.write_bytes(b"RPTR\x63\x00" + b"\x00" * 8)
        with pytest.raises(TraceFormatError, match="version 99"):
            load_trace_binary(path)

    def test_trailing_garbage_detected(self, tmp_path, sample_trace):
        from repro.traces.trace_io import load_trace_binary, save_trace_binary

        path = tmp_path / "t.bin"
        save_trace_binary(sample_trace, path)
        path.write_bytes(path.read_bytes() + b"\xff\xff\xff")
        with pytest.raises(TraceFormatError, match="3 trailing byte"):
            load_trace_binary(path)

    def test_out_of_range_access_type_byte(self, tmp_path, sample_trace):
        from repro.traces.trace_io import (
            _RECORD_STRUCT,
            load_trace_binary,
            save_trace_binary,
        )

        path = tmp_path / "t.bin"
        save_trace_binary(sample_trace, path)
        data = bytearray(path.read_bytes())
        header = len(data) - len(sample_trace.records) * _RECORD_STRUCT.size
        # access_type is the 17th byte (<QQBHB) of record 1.
        data[header + 1 * _RECORD_STRUCT.size + 16] = 200
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace_binary(path)
        assert "access_type 200" in str(excinfo.value)
        assert "record 1" in str(excinfo.value)

    def test_quarantine_skips_bad_records(self, tmp_path, sample_trace):
        from repro.traces.trace_io import (
            _RECORD_STRUCT,
            load_trace_binary,
            save_trace_binary,
        )

        path = tmp_path / "t.bin"
        save_trace_binary(sample_trace, path)
        data = bytearray(path.read_bytes())
        header = len(data) - len(sample_trace.records) * _RECORD_STRUCT.size
        data[header + 16] = 200
        path.write_bytes(bytes(data))
        with pytest.warns(TraceQuarantineWarning, match="1 bad record"):
            trace = load_trace_binary(path, quarantine=True)
        assert len(trace) == len(sample_trace.records) - 1
        assert trace.records == sample_trace.records[1:]

    def test_quarantine_salvages_truncated_file_prefix(
        self, tmp_path, sample_trace
    ):
        from repro.traces.trace_io import (
            _RECORD_STRUCT,
            load_trace_binary,
            save_trace_binary,
        )

        path = tmp_path / "t.bin"
        save_trace_binary(sample_trace, path)
        data = path.read_bytes()
        header = len(data) - len(sample_trace.records) * _RECORD_STRUCT.size
        path.write_bytes(data[: header + 2 * _RECORD_STRUCT.size + 7])
        with pytest.warns(TraceQuarantineWarning, match="cut 7 bytes"):
            trace = load_trace_binary(path, quarantine=True)
        assert trace.records == sample_trace.records[:2]

    def test_trace_format_error_is_a_value_error(self):
        # Existing call sites catch ValueError; the typed error must keep
        # satisfying them.
        assert issubclass(TraceFormatError, ValueError)

