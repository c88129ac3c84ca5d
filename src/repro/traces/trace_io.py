"""Trace file I/O.

Two formats:

* **CSV** (:func:`save_trace` / :func:`load_trace`): the paper's record
  layout ``pc,access_type,address`` plus the two extra columns this
  repository's timing model needs (``instr_delta,core``).  Files ending in
  ``.gz`` are transparently compressed.  Human-readable, interoperable.
* **Binary** (:func:`save_trace_binary` / :func:`load_trace_binary`): a
  compact fixed-width record format (20 bytes/record after a small header)
  for large traces — ~4x smaller and ~10x faster to parse than CSV.

The binary encoding is exposed as :func:`trace_to_bytes` /
:func:`trace_from_bytes`.  Its fields are fixed-width, so
:func:`trace_to_bytes` raises ``ValueError`` on a record it cannot hold
rather than writing a different trace.  The prepared-workload disk cache
(:mod:`repro.eval.prep_cache`) keys on the lossless column encoding of
:func:`repro.traces.record.records_to_columns` instead.

Ingestion is hardened (see docs/validation.md): both loaders validate
structure and field ranges up front (a CSV value too large for its
:data:`~repro.traces.record.COLUMN_MAX` column included) and fail with a
typed :class:`~repro.sanitize.errors.TraceFormatError` carrying the CSV line
number or binary byte offset and record index — never a bare
``struct.error``/``KeyError``.  With ``quarantine=True`` a loader skips
bad records instead of aborting, emits one counted
:class:`TraceQuarantineWarning`, and bumps the ``trace.quarantined``
telemetry counter (free when telemetry is off).
"""

from __future__ import annotations

import gzip
import struct
import warnings
from pathlib import Path

from repro.sanitize.errors import TraceFormatError
from repro.telemetry import get_registry
from repro.traces.record import (
    COLUMN_MAX,
    AccessType,
    Trace,
    TraceRecord,
    access_type_from_name,
)


class TraceQuarantineWarning(UserWarning):
    """Bad trace records were skipped by a ``quarantine=True`` load."""

_HEADER = "pc,access_type,address,instr_delta,core"

#: Binary format: magic, version, then one fixed-width record per access,
#: whose fields and struct codes are these.
_BINARY_MAGIC = b"RPTR"
_BINARY_VERSION = 1
_RECORD_FIELDS = (
    ("address", "Q"),
    ("pc", "Q"),
    ("access_type", "B"),
    ("instr_delta", "H"),
    ("core", "B"),
)
_RECORD_STRUCT = struct.Struct(
    "<" + "".join(code for _, code in _RECORD_FIELDS)
)


def _open(path, mode):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t")
    return open(path, mode)


def save_trace(trace: Trace, path) -> None:
    """Write ``trace`` to ``path`` (CSV, gzip if the name ends in .gz)."""
    with _open(path, "w") as handle:
        handle.write(f"# trace: {trace.name}\n")
        handle.write(_HEADER + "\n")
        for record in trace.records:
            handle.write(
                f"{record.pc:#x},{record.access_type.short_name},"
                f"{record.address:#x},{record.instr_delta},{record.core}\n"
            )


def _quarantine_report(source, skipped: list) -> None:
    """One counted warning + telemetry counter for skipped records."""
    if not skipped:
        return
    get_registry().counter("trace.quarantined").inc(len(skipped))
    first = skipped[0]
    warnings.warn(
        f"{source}: quarantined {len(skipped)} bad record(s) "
        f"(first: {first})",
        TraceQuarantineWarning,
        stacklevel=3,
    )


def _parse_csv_record(fields, source, lineno: int) -> TraceRecord:
    """One validated CSV record; raises a line-numbered TraceFormatError."""
    if len(fields) not in (3, 5):
        raise TraceFormatError(
            source,
            f"expected 3 or 5 comma-separated fields, got {len(fields)}",
            line=lineno,
        )
    try:
        pc = int(fields[0], 0)
        address = int(fields[2], 0)
        instr_delta = int(fields[3]) if len(fields) == 5 else 1
        core = int(fields[4]) if len(fields) == 5 else 0
    except ValueError as error:
        raise TraceFormatError(
            source, f"non-numeric field ({error})", line=lineno
        ) from None
    try:
        access_type = access_type_from_name(fields[1])
    except ValueError:
        known = "/".join(sorted(t.short_name for t in AccessType))
        raise TraceFormatError(
            source,
            f"unknown access_type {fields[1]!r} (expected {known})",
            line=lineno,
        ) from None
    if pc < 0 or address < 0:
        raise TraceFormatError(
            source, f"negative address/pc ({fields[2]!r})", line=lineno
        )
    if instr_delta < 0:
        raise TraceFormatError(
            source, f"negative instr_delta {instr_delta}", line=lineno
        )
    if core < 0:
        raise TraceFormatError(
            source, f"negative core {core}", line=lineno
        )
    for field_name, value in (
        ("address", address),
        ("pc", pc),
        ("instr_delta", instr_delta),
        ("core", core),
    ):
        if value > COLUMN_MAX[field_name]:
            raise TraceFormatError(
                source,
                f"{field_name} {value} above {COLUMN_MAX[field_name]}",
                line=lineno,
            )
    return TraceRecord(
        address=address,
        pc=pc,
        access_type=access_type,
        instr_delta=instr_delta,
        core=core,
    )


def load_trace(path, name: str = None, quarantine: bool = False) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Malformed lines raise :class:`TraceFormatError` naming the file and
    1-based line number; with ``quarantine=True`` they are skipped and
    reported once via :class:`TraceQuarantineWarning` instead.
    """
    records = []
    skipped = []
    trace_name = name
    source = str(path)
    with _open(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if trace_name is None and "trace:" in line:
                    trace_name = line.split("trace:", 1)[1].strip()
                continue
            if line.startswith("pc,"):
                continue  # header
            try:
                records.append(
                    _parse_csv_record(line.split(","), source, lineno)
                )
            except TraceFormatError as error:
                if not quarantine:
                    raise
                skipped.append(str(error))
    _quarantine_report(source, skipped)
    return Trace(trace_name or source, records)


def trace_to_bytes(trace: Trace) -> bytes:
    """The canonical binary encoding of ``trace`` (header + fixed records).

    Deterministic: the same name and record sequence always produce the
    same bytes.  A record with a field outside its fixed width (an
    ``instr_delta`` above 0xFFFF, a core above 255, ...) raises
    ``ValueError`` naming the record and the field.
    """
    name_bytes = trace.name.encode("utf-8")[:255]
    chunks = [
        _BINARY_MAGIC,
        struct.pack("<BB", _BINARY_VERSION, len(name_bytes)),
        name_bytes,
        struct.pack("<Q", len(trace.records)),
    ]
    header = len(chunks)
    pack = _RECORD_STRUCT.pack
    try:
        for record in trace.records:
            chunks.append(
                pack(
                    record.address,
                    record.pc,
                    record.access_type,
                    record.instr_delta,
                    record.core,
                )
            )
    except struct.error:
        index = len(chunks) - header
        raise ValueError(_misfit(trace.records[index], index)) from None
    return b"".join(chunks)


def _misfit(record: TraceRecord, index: int) -> str:
    """Which field of ``record`` (the ``index``-th) the format cannot hold."""
    for field_name, code in _RECORD_FIELDS:
        value = getattr(record, field_name)
        try:
            struct.pack("<" + code, value)
        except struct.error as error:
            return (
                f"record {index}: {field_name} {value!r} does not fit the "
                f"binary trace format ({error})"
            )
    return f"record {index} does not fit the binary trace format"


def trace_from_bytes(
    data: bytes, source: str = "<bytes>", quarantine: bool = False
) -> Trace:
    """Decode a trace from its canonical binary encoding.

    Structural problems (bad magic, unknown version, truncated header or
    record tail, trailing garbage) raise :class:`TraceFormatError` with the
    byte offset; a record with an out-of-range ``access_type`` raises with
    both the byte offset and the 0-based record index.  Under
    ``quarantine=True`` bad records are skipped, and a truncated or
    over-long body is reported once while the intact record prefix is
    salvaged; only header-level corruption still raises.
    """
    if len(data) == 0:
        raise TraceFormatError(source, "empty file (no trace header)")
    if data[:4] != _BINARY_MAGIC:
        raise TraceFormatError(
            source,
            f"bad magic {data[:4]!r} (expected {_BINARY_MAGIC!r})",
            offset=0,
        )
    try:
        version, name_length = struct.unpack_from("<BB", data, 4)
    except struct.error:
        raise TraceFormatError(
            source, "truncated header (version byte missing)", offset=4
        ) from None
    if version != _BINARY_VERSION:
        raise TraceFormatError(
            source,
            f"unsupported trace version {version} "
            f"(expected {_BINARY_VERSION})",
            offset=4,
        )
    offset = 6
    name = data[offset : offset + name_length].decode("utf-8", "replace")
    offset += name_length
    try:
        (count,) = struct.unpack_from("<Q", data, offset)
    except struct.error:
        raise TraceFormatError(
            source, "truncated header (record count missing)", offset=offset
        ) from None
    offset += 8
    size = _RECORD_STRUCT.size
    body = len(data) - offset
    skipped = []
    parse_count = count
    if body != count * size:
        if body < count * size:
            whole, partial = divmod(body, size)
            detail = (
                f"truncated record body: header promises {count} records "
                f"({count * size} bytes) but only {body} bytes follow"
            )
            if partial:
                detail += f" (file cut {partial} bytes into a record)"
            error = TraceFormatError(
                source, detail, offset=offset + whole * size, record=whole
            )
            parse_count = whole  # quarantine salvages the intact prefix
        else:
            error = TraceFormatError(
                source,
                f"{body - count * size} trailing byte(s) after the last "
                "record",
                offset=offset + count * size,
            )
        if not quarantine:
            raise error
        skipped.append(str(error))
    records = []
    unpack = _RECORD_STRUCT.unpack_from
    for index in range(parse_count):
        address, pc, access_type, instr_delta, core = unpack(
            data, offset + index * size
        )
        try:
            access_type = AccessType(access_type)
        except ValueError:
            error = TraceFormatError(
                source,
                f"access_type {access_type} outside "
                f"0..{max(AccessType)}",
                offset=offset + index * size,
                record=index,
            )
            if not quarantine:
                raise error from None
            skipped.append(str(error))
            continue
        records.append(
            TraceRecord(
                address=address,
                pc=pc,
                access_type=access_type,
                instr_delta=instr_delta,
                core=core,
            )
        )
    _quarantine_report(source, skipped)
    return Trace(name, records)


def save_trace_binary(trace: Trace, path) -> None:
    """Write ``trace`` in the compact binary format."""
    with open(path, "wb") as handle:
        handle.write(trace_to_bytes(trace))


def load_trace_binary(path, quarantine: bool = False) -> Trace:
    """Read a trace written by :func:`save_trace_binary`.

    A truncated, corrupt, or zero-byte file raises
    :class:`TraceFormatError` naming the file and byte offset (never a
    bare ``struct.error``); ``quarantine=True`` skips records with
    out-of-range fields instead of aborting.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    return trace_from_bytes(data, source=str(path), quarantine=quarantine)
