"""Memory access records — the unit of work fed to the simulators.

The paper's trace files are ChampSim LLC access logs of the form
``<PC, Access Type, Address>``.  This module defines the equivalent in-memory
representation used throughout the repository, for *CPU-level* traces (which
the cache hierarchy filters down to LLC accesses) as well as for pre-filtered
LLC traces.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import IntEnum

#: Cache line size used everywhere in this repository (bytes).
LINE_SIZE = 64
#: Number of low-order address bits covered by a cache line.
OFFSET_BITS = 6


class AccessType(IntEnum):
    """LLC access types, matching ChampSim / the paper's trace format."""

    LOAD = 0  #: Demand load (LD)
    RFO = 1  #: Request-for-ownership, i.e. a store miss (RFO)
    PREFETCH = 2  #: Hardware prefetch (PR)
    WRITEBACK = 3  #: Dirty eviction from an upper level (WB)

    @property
    def is_demand(self) -> bool:
        """True for access types that stall the core (LOAD and RFO)."""
        return self in (AccessType.LOAD, AccessType.RFO)

    @property
    def short_name(self) -> str:
        """Two/three-letter code used in traces and reports (LD/RFO/PR/WB)."""
        return _SHORT_NAMES[self]


_SHORT_NAMES = {
    AccessType.LOAD: "LD",
    AccessType.RFO: "RFO",
    AccessType.PREFETCH: "PR",
    AccessType.WRITEBACK: "WB",
}

_FROM_SHORT = {name: atype for atype, name in _SHORT_NAMES.items()}


def access_type_from_name(name: str) -> AccessType:
    """Parse an access type from its short code ("LD", "RFO", "PR", "WB")."""
    try:
        return _FROM_SHORT[name.upper()]
    except KeyError:
        raise ValueError(f"unknown access type {name!r}") from None


@dataclass(frozen=True, slots=True, init=False)
class TraceRecord:
    """One memory reference in a trace.

    Attributes:
        address: Full byte address of the reference.
        pc: Program counter of the instruction issuing the reference.  The
            cache substrate carries PC so that PC-based baselines (SHiP,
            Hawkeye, ...) can be simulated; RLR itself never reads it.
        access_type: LOAD / RFO / PREFETCH / WRITEBACK.
        instr_delta: Number of instructions retired since the previous memory
            reference in the trace (used by the timing model to compute IPC).
        core: Issuing core id (0 for single-core traces).
        line_address: Derived — address with the intra-line offset stripped
            (precomputed once; records are looked up in several cache levels).
    """

    address: int
    pc: int = 0
    access_type: AccessType = AccessType.LOAD
    instr_delta: int = 1
    core: int = 0
    line_address: int = field(init=False, compare=False, default=-1)

    # Written out rather than generated: a frozen dataclass's ``__init__``
    # calls ``object.__setattr__`` once per field and then ``__post_init__``,
    # which made each record cost about 1.5 us.  Storing through the slots'
    # member descriptors (bound below the class) skips the frozen
    # ``__setattr__`` and halves that.  Assignment still raises.
    def __init__(
        self,
        address: int,
        pc: int = 0,
        access_type: AccessType = AccessType.LOAD,
        instr_delta: int = 1,
        core: int = 0,
    ) -> None:
        _set_address(self, address)
        _set_pc(self, pc)
        _set_access_type(self, access_type)
        _set_instr_delta(self, instr_delta)
        _set_core(self, core)
        _set_line_address(self, address >> OFFSET_BITS)

    @property
    def offset(self) -> int:
        """Low-order offset bits of the address (within the cache line)."""
        return self.address & (LINE_SIZE - 1)

    @property
    def is_write(self) -> bool:
        """True if the access writes the line (RFO or WRITEBACK)."""
        return self.access_type in (AccessType.RFO, AccessType.WRITEBACK)


_set_address = TraceRecord.address.__set__
_set_pc = TraceRecord.pc.__set__
_set_access_type = TraceRecord.access_type.__set__
_set_instr_delta = TraceRecord.instr_delta.__set__
_set_core = TraceRecord.core.__set__
_set_line_address = TraceRecord.line_address.__set__

#: ``array`` type code of each integer column of :func:`records_to_columns`.
#: Access types travel as one byte each.
_COLUMN_CODES = {"address": "Q", "pc": "Q", "instr_delta": "I", "core": "H"}

#: Largest value each integer column holds.  The CSV loader rejects a
#: larger one (the binary format's fields are narrower), so every record a
#: loader builds can cross the codec.
COLUMN_MAX = {
    name: (1 << (8 * array(code).itemsize)) - 1
    for name, code in _COLUMN_CODES.items()
}

_ACCESS_TYPES = tuple(AccessType)  # indexed by value


def records_to_columns(records) -> tuple:
    """``records`` as typed columns: ``(address, pc, access_type,
    instr_delta, core)``.

    The integer columns are ``array``s in native byte order and the access
    types are one ``bytes`` of their values.  The encoding is lossless for
    every value within :data:`COLUMN_MAX`; a value outside it raises
    ``OverflowError``.  A list of ~100k records pickles as these five
    buffers far faster than as that many dataclasses.
    """
    codes = _COLUMN_CODES
    return (
        array(codes["address"], [record.address for record in records]),
        array(codes["pc"], [record.pc for record in records]),
        bytes([record.access_type for record in records]),
        array(codes["instr_delta"],
              [record.instr_delta for record in records]),
        array(codes["core"], [record.core for record in records]),
    )


def records_from_columns(columns) -> list:
    """The records :func:`records_to_columns` encoded, in order."""
    addresses, pcs, access_types, instr_deltas, cores = columns
    return list(
        map(
            TraceRecord,
            addresses,
            pcs,
            map(_ACCESS_TYPES.__getitem__, access_types),
            instr_deltas,
            cores,
        )
    )


@dataclass
class Trace:
    """A named sequence of trace records plus bookkeeping metadata."""

    name: str
    records: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    @property
    def instruction_count(self) -> int:
        """Total instructions represented by the trace."""
        return sum(record.instr_delta for record in self.records)

    def footprint_lines(self) -> int:
        """Number of distinct cache lines touched by the trace."""
        return len({record.line_address for record in self.records})
