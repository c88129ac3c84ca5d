"""A single cache set: ways, the recency stack and the Table II set counters."""

from __future__ import annotations

from repro.cache.block import CacheLine


class CacheSet:
    """One set of a set-associative cache.

    ``stack`` is one insertion-ordered ``tag -> way`` dict holding every
    valid line, least recently used first and most recently used last.  It
    is both the tag index (a lookup is ``stack.get(tag)``) and the recency
    stack (a hit moves the tag to the end; a fill inserts it there; an
    eviction or invalidation deletes it), so no access loops over the ways.
    Recency ranks and line ages are derived where they are read: a way's
    rank is its position in ``stack`` (MRU = ``ways - 1``, counting down)
    and an age is ``accesses`` minus the line's stamp.

    The set-level features the paper's RL agent consumes are ``accesses``
    (total set accesses), ``accesses_since_miss`` (reset on every miss) and
    ``misses``.
    """

    __slots__ = ("index", "ways", "lines", "stack", "accesses",
                 "accesses_since_miss", "misses")

    def __init__(self, index: int, ways: int) -> None:
        self.index = index
        self.ways = ways
        self.lines = [CacheLine() for _ in range(ways)]
        self.stack = {}
        self.accesses = 0
        self.accesses_since_miss = 0
        self.misses = 0

    def find(self, tag: int):
        """Return the way index holding ``tag``, or None."""
        return self.stack.get(tag)

    def free_way(self):
        """Return the lowest invalid way, or None if the set is full."""
        if len(self.stack) == self.ways:
            return None
        for way, line in enumerate(self.lines):
            if not line.valid:
                return way
        return None

    def fill(self, way: int, tag: int, line_address: int, access) -> None:
        """Install ``access``'s line in the free ``way`` as the MRU line,
        with full Table II metadata."""
        self.lines[way].fill(tag, line_address, access, self.accesses)
        self.stack[tag] = way

    def invalidate(self, way: int) -> None:
        """Drop the valid line in ``way`` from the set."""
        line = self.lines[way]
        del self.stack[line.tag]
        line.valid = False
        line.tag = -1
        line.line_address = -1
        line.dirty = False

    def lru_way(self) -> int:
        """Way index of the least recently used valid line."""
        return next(iter(self.stack.values()), 0)

    def mru_way(self) -> int:
        """Way index of the most recently used valid line."""
        return next(reversed(self.stack.values()), 0)

    def recencies(self) -> list:
        """Recency rank of every way: MRU = ``ways - 1``, counting down
        the stack; invalid ways read 0."""
        ranks = [0] * self.ways
        rank = self.ways - len(self.stack)
        for way in self.stack.values():
            ranks[way] = rank
            rank += 1
        return ranks

    def recency(self, way: int) -> int:
        """Recency rank of ``way`` (see :meth:`recencies`)."""
        return self.recencies()[way]

    def age_since_insertion(self, way: int) -> int:
        """Set accesses since the line in ``way`` was filled."""
        return self.accesses - self.lines[way].inserted_at

    def age_since_last_access(self, way: int) -> int:
        """Set accesses since the line in ``way`` was last accessed."""
        return self.accesses - self.lines[way].last_access_at

    def valid_ways(self):
        """Indices of valid ways."""
        return [way for way, line in enumerate(self.lines) if line.valid]
