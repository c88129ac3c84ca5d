"""A deliberately naive set-associative cache: the reference for ``Cache``.

Each set is a Python list used as an LRU stack (LRU first, MRU last).
Ages are explicit counters bumped on every access to the set. Lines keep
the Table II fields. Nothing is shared with ``repro.cache``: the model is
written from the paper's definitions, so a disagreement is a defect in one
of the two.
"""

from __future__ import annotations

from repro.traces.record import AccessType


class ReferenceLine:
    def __init__(self, way, record, line_address):
        kind = record.access_type
        self.way = way
        self.line_address = line_address
        self.dirty = kind in (AccessType.RFO, AccessType.WRITEBACK)
        self.offset = record.address % 64
        self.core = record.core
        self.insertion_pc = self.last_pc = record.pc
        self.insertion_type = self.last_access_type = kind
        self.preuse = 0
        self.age_since_insertion = 0
        self.age_since_last_access = 0
        self.hits_since_insertion = 0
        self.access_counts = [0, 0, 0, 0]
        self.access_counts[kind] = 1


class ReferenceCache:
    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [[] for _ in range(num_sets)]
        self.hits = {kind: 0 for kind in AccessType}
        self.misses = {kind: 0 for kind in AccessType}
        self.evictions = 0
        self.dirty_evictions = 0
        self.compulsory_misses = 0
        self.seen = set()

    def stack(self, line_address: int) -> list:
        return self.sets[line_address % self.num_sets]

    def access(self, record, victim_way=None):
        """(hit, evicted line address or -1, evicted dirty bit).

        A full set evicts its LRU line, or the line in ``victim_way``
        when the caller hands one in.
        """
        line_address = record.address // 64
        kind = record.access_type
        stack = self.stack(line_address)
        for line in stack:
            line.age_since_insertion += 1
            line.age_since_last_access += 1
        for line in stack:
            if line.line_address == line_address:
                stack.remove(line)
                stack.append(line)
                line.preuse = line.age_since_last_access
                line.age_since_last_access = 0
                line.hits_since_insertion += 1
                line.access_counts[kind] += 1
                line.last_access_type = kind
                line.last_pc = record.pc
                if kind in (AccessType.RFO, AccessType.WRITEBACK):
                    line.dirty = True
                self.hits[kind] += 1
                return True, -1, False
        self.misses[kind] += 1
        if line_address not in self.seen:
            self.seen.add(line_address)
            self.compulsory_misses += 1
        evicted = (-1, False)
        if len(stack) == self.ways:
            victim = stack[0]
            if victim_way is not None:
                victim = [line for line in stack if line.way == victim_way][0]
            stack.remove(victim)
            self.evictions += 1
            self.dirty_evictions += victim.dirty
            evicted = (victim.line_address, victim.dirty)
            way = victim.way
        else:
            way = min(set(range(self.ways)) - {line.way for line in stack})
        stack.append(ReferenceLine(way, record, line_address))
        return (False,) + evicted

    def invalidate(self, line_address: int):
        """(was present, was dirty)."""
        stack = self.stack(line_address)
        for line in stack:
            if line.line_address == line_address:
                stack.remove(line)
                return True, line.dirty
        return False, False

    def recency(self, line_address: int) -> int:
        """MRU = ways - 1, counting down the stack."""
        stack = self.stack(line_address)
        position = [line.line_address for line in stack].index(line_address)
        return self.ways - len(stack) + position

    def summary(self) -> dict:
        hits, misses = sum(self.hits.values()), sum(self.misses.values())
        demand = (AccessType.LOAD, AccessType.RFO)
        demand_hits = sum(self.hits[kind] for kind in demand)
        demand_misses = sum(self.misses[kind] for kind in demand)
        return {
            "accesses": hits + misses,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "demand_hits": demand_hits,
            "demand_misses": demand_misses,
            "demand_hit_rate": (demand_hits / (demand_hits + demand_misses)
                                if demand_hits + demand_misses else 0.0),
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "bypasses": 0,
        }
