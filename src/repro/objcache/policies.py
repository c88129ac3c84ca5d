"""Size-aware eviction policies over the object-cache substrate.

Mirrors the CPU-side registry idiom (`repro.cache.replacement.base`): an
abstract ``ObjectEvictionPolicy`` with lifecycle hooks, a module registry,
and ``make_object_policy(name, **params)``.  Victim selection returns a
*key*; the cache calls it repeatedly until the incoming object fits
(evict-until-fits — one admission may take several victims).

Determinism contract: policies may keep internal heaps/dicts but every
tie-break must be total and input-derived (sequence numbers, keys), never
identity- or hash-order-dependent, so sweeps are byte-identical across
process fan-out.
"""

from __future__ import annotations

import heapq

from .core import CachedObject, ObjectCacheError

OBJECT_POLICY_REGISTRY = {}


def register_object_policy(cls=None, *, name=None):
    """Class/factory decorator mirroring ``register_policy`` on the CPU side."""

    def wrap(target):
        key = name or getattr(target, "name", None)
        if not key:
            raise ValueError("object policy needs a registry name")
        if key in OBJECT_POLICY_REGISTRY:
            raise ValueError(f"duplicate object policy name: {key!r}")
        OBJECT_POLICY_REGISTRY[key] = target
        return target

    return wrap(cls) if cls is not None else wrap


def object_policy_names() -> list:
    return sorted(OBJECT_POLICY_REGISTRY)


def make_object_policy(name: str, **params):
    try:
        factory = OBJECT_POLICY_REGISTRY[name]
    except KeyError:
        known = ", ".join(object_policy_names())
        raise ObjectCacheError(
            f"unknown object policy {name!r} (known: {known})"
        ) from None
    return factory(**params)


class ObjectEvictionPolicy:
    """Lifecycle hooks the :class:`~repro.objcache.cache.ObjectCache` drives.

    ``victim(residents, incoming, now)`` must return the key of a resident
    object; the cache removes it and calls ``on_evict``.  ``residents`` is
    the cache's key->CachedObject mapping (insertion-ordered, read-only by
    convention).
    """

    name = "abstract"

    def on_admit(self, obj: CachedObject, now: int) -> None:
        """A new object was inserted."""

    def on_hit(self, obj: CachedObject, now: int) -> None:
        """A resident object was requested (metadata already updated)."""

    def on_evict(self, obj: CachedObject, now: int) -> None:
        """A victim chosen by ``victim`` (or a forced removal) left the cache."""

    def victim(self, residents: dict, incoming, now: int) -> int:
        raise NotImplementedError


@register_object_policy
class ObjectLRUPolicy(ObjectEvictionPolicy):
    """Plain recency: evict the least recently used object, size-blind."""

    name = "lru"

    def __init__(self):
        self._order = {}  # key -> None; dict preserves insertion order

    def on_admit(self, obj, now):
        self._order[obj.key] = None

    def on_hit(self, obj, now):
        # Move to MRU position.
        del self._order[obj.key]
        self._order[obj.key] = None

    def on_evict(self, obj, now):
        self._order.pop(obj.key, None)

    def victim(self, residents, incoming, now):
        return next(iter(self._order))


@register_object_policy
class ObjectSizePolicy(ObjectEvictionPolicy):
    """LRU-size (the classic SIZE policy): evict the largest object first.

    Ties (equal sizes) fall back to admission order — oldest first — which
    an insertion-sequence heap key makes total and deterministic.  Large
    objects cost the most capacity per cached hit, so discarding them first
    maximises the *number* of residents; the byte-hit-rate consequences are
    workload-dependent (see docs/object_caching.md).
    """

    name = "lru_size"

    def __init__(self):
        self._heap = []  # (-size, admit_seq, key)
        self._live = set()
        self._seq = 0

    def on_admit(self, obj, now):
        heapq.heappush(self._heap, (-obj.size, self._seq, obj.key))
        self._seq += 1
        self._live.add(obj.key)

    def on_evict(self, obj, now):
        self._live.discard(obj.key)

    def victim(self, residents, incoming, now):
        while self._heap:
            _, _, key = self._heap[0]
            if key in self._live:
                return key
            heapq.heappop(self._heap)  # stale entry from an earlier eviction
        raise ObjectCacheError("lru_size: victim requested from empty cache")


@register_object_policy
class GDSFPolicy(ObjectEvictionPolicy):
    """GreedyDual-Size-Frequency (Cherkasova '98).

    Priority ``H = L + frequency * cost / size`` with the inflation value
    ``L`` raised to each victim's ``H`` on eviction, so long-idle objects
    age out no matter their frequency.  ``cost`` models what a miss costs:

    * ``"unit"``  — cost 1: optimises object hit rate (classic GDSF);
    * ``"byte"``  — cost = size: ``H = L + frequency``, optimises byte hit
      rate (GreedyDual-Frequency).

    Lazy-invalidation heap: hits push a fresh entry and bump a version; the
    victim scan pops stale versions.  Tie-break is (H, push_seq, key).
    """

    name = "gdsf"

    def __init__(self, cost: str = "unit"):
        if cost not in ("unit", "byte"):
            raise ObjectCacheError(
                f"gdsf cost must be 'unit' or 'byte', got {cost!r}"
            )
        self.cost = cost
        self.inflation = 0.0
        self._heap = []  # (H, push_seq, key, version)
        self._version = {}  # key -> current version
        self._freq = {}
        self._seq = 0

    def _priority(self, obj) -> float:
        cost = obj.size if self.cost == "byte" else 1
        return self.inflation + self._freq[obj.key] * cost / obj.size

    def _push(self, obj):
        self._version[obj.key] = self._version.get(obj.key, 0) + 1
        heapq.heappush(
            self._heap,
            (self._priority(obj), self._seq, obj.key, self._version[obj.key]),
        )
        self._seq += 1

    def on_admit(self, obj, now):
        self._freq[obj.key] = 1
        self._push(obj)

    def on_hit(self, obj, now):
        self._freq[obj.key] += 1
        self._push(obj)

    def on_evict(self, obj, now):
        self._version.pop(obj.key, None)
        self._freq.pop(obj.key, None)

    def victim(self, residents, incoming, now):
        while self._heap:
            priority, _, key, version = self._heap[0]
            if self._version.get(key) == version:
                self.inflation = priority
                return key
            heapq.heappop(self._heap)
        raise ObjectCacheError("gdsf: victim requested from empty cache")

