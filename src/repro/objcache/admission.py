"""Admission control for the object cache.

Eviction asks "who leaves"; admission asks the prior question CPU caches
never face: "is this object worth caching at all?".  One-hit wonders —
objects requested exactly once — waste capacity and force evictions of
objects that would have hit, so a cheap gate in front of the cache is often
worth more than a smarter eviction policy (DEAP Cache, TinyLFU).

Hooks follow the registry idiom; ``record`` sees every request (hit or
miss) so frequency gates can learn popularity even for objects they reject.
"""

from __future__ import annotations

from .core import ObjectCacheError

OBJECT_ADMISSION_REGISTRY = {}


def register_admission(cls=None, *, name=None):
    def wrap(target):
        key = name or getattr(target, "name", None)
        if not key:
            raise ValueError("admission hook needs a registry name")
        if key in OBJECT_ADMISSION_REGISTRY:
            raise ValueError(f"duplicate admission hook name: {key!r}")
        OBJECT_ADMISSION_REGISTRY[key] = target
        return target

    return wrap(cls) if cls is not None else wrap


def admission_names() -> list:
    return sorted(OBJECT_ADMISSION_REGISTRY)


def make_admission(name: str, **params):
    try:
        factory = OBJECT_ADMISSION_REGISTRY[name]
    except KeyError:
        known = ", ".join(admission_names())
        raise ObjectCacheError(
            f"unknown admission hook {name!r} (known: {known})"
        ) from None
    return factory(**params)


class AdmissionHook:
    """``admit(request, now) -> bool`` plus a per-request ``record`` tap."""

    name = "abstract"

    def record(self, request, now: int) -> None:
        """Called for every request before the hit/miss is resolved."""

    def admit(self, request, now: int) -> bool:
        raise NotImplementedError


@register_admission
class AlwaysAdmit(AdmissionHook):
    """Admit everything (the implicit policy of every CPU cache)."""

    name = "always"

    def admit(self, request, now):
        return True


@register_admission
class FrequencyGateAdmission(AdmissionHook):
    """TinyLFU-style frequency gate: admit on the ``threshold``-th sighting.

    A count-min sketch (``depth`` rows of ``width`` 4-bit-style counters)
    estimates each key's request frequency; an object is admitted only once
    its estimate reaches ``threshold`` (default 2: the second request —
    i.e. never cache a never-before-seen object).  Counters halve every
    ``reset_interval`` requests so the sketch tracks the *recent* popularity
    the cache can still exploit, not all of history.

    Hash rows use fixed odd multipliers (splitmix-style avalanche), so the
    gate is deterministic across processes — no PYTHONHASHSEED dependence.
    """

    name = "freq_gate"

    _MULTIPLIERS = (
        0x9E3779B97F4A7C15,
        0xBF58476D1CE4E5B9,
        0x94D049BB133111EB,
        0xD6E8FEB86659FD93,
    )
    _MASK = (1 << 64) - 1
    _COUNTER_MAX = 15

    def __init__(self, width: int = 4096, depth: int = 4,
                 threshold: int = 2, reset_interval: int = 65536):
        if width <= 0 or not 1 <= depth <= len(self._MULTIPLIERS):
            raise ObjectCacheError(
                f"freq_gate needs width > 0 and 1 <= depth <= 4, "
                f"got width={width} depth={depth}"
            )
        if threshold < 1:
            raise ObjectCacheError(
                f"freq_gate threshold must be >= 1, got {threshold}"
            )
        self.width = width
        self.depth = depth
        self.threshold = threshold
        self.reset_interval = reset_interval
        self._rows = [[0] * width for _ in range(depth)]
        self._since_reset = 0

    def _slots(self, key: int):
        for row in range(self.depth):
            mixed = (key * self._MULTIPLIERS[row]) & self._MASK
            mixed ^= mixed >> 29
            yield row, mixed % self.width

    def estimate(self, key: int) -> int:
        return min(self._rows[row][slot] for row, slot in self._slots(key))

    def record(self, request, now):
        for row, slot in self._slots(request.key):
            if self._rows[row][slot] < self._COUNTER_MAX:
                self._rows[row][slot] += 1
        self._since_reset += 1
        if self._since_reset >= self.reset_interval:
            for row in self._rows:
                for slot in range(self.width):
                    row[slot] >>= 1
            self._since_reset = 0

    def admit(self, request, now):
        return self.estimate(request.key) >= self.threshold
