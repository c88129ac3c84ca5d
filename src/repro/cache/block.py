"""Cache line metadata.

Each line carries the per-line features from Table II of the paper (offset,
dirty bit, preuse distance, last access type, per-type access counts, hits
since insertion) so the RL agent can build its full state vector.  The two
ages and the recency rank are not stored: the line keeps the set's access
count at its fill and at its last access, and the owning
:class:`~repro.cache.cache_set.CacheSet` derives ages and ranks from those
stamps and its recency stack when they are read.  Hardware policies (RLR
included) deliberately *do not* read the idealized counters here; they
model their own quantized registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.traces.record import AccessType, LINE_SIZE


@dataclass(slots=True)
class CacheLine:
    """One way of one cache set, plus the Table II per-line features."""

    valid: bool = False
    tag: int = -1
    line_address: int = -1
    dirty: bool = False
    offset: int = 0  #: low-order 6 bits of the address that inserted the line
    core: int = 0
    insertion_pc: int = 0
    last_pc: int = 0
    last_access_type: AccessType = AccessType.LOAD
    insertion_type: AccessType = AccessType.LOAD
    preuse: int = 0  #: set accesses between the last two accesses to the line
    hits_since_insertion: int = 0
    access_counts: list = field(
        default_factory=lambda: [0, 0, 0, 0]
    )  #: per-type access counts since insertion, indexed by AccessType value
    inserted_at: int = 0  #: the set's access count when the line was filled
    last_access_at: int = 0  #: the set's access count at the last access

    def fill(self, tag: int, line_address: int, access, now: int) -> None:
        """Install a new line for ``access`` at set access ``now``.

        Resets every per-line counter.  The recency stack is the set's
        business (:meth:`repro.cache.cache_set.CacheSet.fill`).
        """
        self.valid = True
        self.tag = tag
        self.line_address = line_address
        self.dirty = access.is_write
        self.offset = access.address & (LINE_SIZE - 1)
        self.core = access.core
        self.insertion_pc = access.pc
        self.last_pc = access.pc
        self.last_access_type = access.access_type
        self.insertion_type = access.access_type
        self.preuse = 0
        self.hits_since_insertion = 0
        self.access_counts = [0, 0, 0, 0]
        self.access_counts[access.access_type] = 1
        self.inserted_at = now
        self.last_access_at = now

    def touch(self, access, now: int) -> None:
        """Record a hit to this line at set access ``now``.

        ``now`` already counts the current access, so ``now`` minus the
        previous access stamp *is* the preuse distance.
        """
        self.preuse = now - self.last_access_at
        self.last_access_at = now
        self.hits_since_insertion += 1
        self.access_counts[access.access_type] += 1
        self.last_access_type = access.access_type
        self.last_pc = access.pc
        if access.is_write:
            self.dirty = True
