"""The next-use oracle: when is this key accessed next?

Belady's OPT, the decision tracers' grading and the RL agent's reward all
ask one question of a recorded access stream: at which position is a key
accessed next?  :class:`NextUseOracle` answers it for any hashable keys
(LLC line addresses, object keys) from one column built in one reverse
pass, and walks that column in step with the replay of the same stream.

It sits below :mod:`repro.cache`, :mod:`repro.rl`, :mod:`repro.objcache`
and :mod:`repro.telemetry` in the import graph, so each of them can read it.
"""

from __future__ import annotations

#: Next-use position of a key that is never accessed again.
NEVER = float("inf")


class NextUseOracle:
    """Next-use positions over a recorded key stream.

    ``column[i]`` is the position of the next access to ``keys[i]`` after
    ``i``, or :data:`NEVER`.  ``upcoming`` maps each key to its first
    position not yet consumed by :meth:`advance` (:data:`NEVER` once the
    key's last access is consumed), so the replay must call :meth:`advance`
    once per access, in stream order.
    """

    def __init__(self, keys) -> None:
        keys = list(keys)
        column = [NEVER] * len(keys)
        upcoming = {}
        for position in range(len(keys) - 1, -1, -1):
            key = keys[position]
            column[position] = upcoming.get(key, NEVER)
            upcoming[key] = position
        self.column = column
        self.upcoming = upcoming
        self.position = 0

    def advance(self, key):
        """Consume the current position, which must hold ``key``.

        Returns the key's next use after it.  This is the one check that
        the replayed stream is the recorded one: ``upcoming[key]`` equals
        the current position exactly when the recorded stream holds
        ``key`` there.
        """
        position = self.position
        if self.upcoming.get(key) != position:
            raise RuntimeError(
                f"oracle misalignment at position {position}: the replayed "
                "stream does not match the recorded one (did the hierarchy "
                "configuration change?)"
            )
        use = self.upcoming[key] = self.column[position]
        self.position = position + 1
        return use

    def next_use(self, key):
        """Position of the next unconsumed access to ``key`` (or NEVER)."""
        return self.upcoming.get(key, NEVER)

    def next_use_after(self, key, position: int):
        """First access to ``key`` strictly after ``position``.

        Lets a consumer that advances at the end of an access (the decision
        tracers) look past the in-flight occurrence of the key being
        inserted, which is still ``upcoming`` at decision time.
        """
        use = self.upcoming.get(key, NEVER)
        column = self.column
        while use <= position:
            use = column[use]
        return use
