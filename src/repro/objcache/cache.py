"""Bytes-capacity object cache: evict-until-fits + pluggable admission.

The request loop is the object-world counterpart of ``Cache.access`` on the
CPU side, with the two structural differences that motivate this subsystem:

* capacity is **bytes**, so admitting one large object may evict several
  victims (the eviction policy is consulted repeatedly until the incoming
  object fits);
* a miss is not automatically a fill — the admission hook may refuse the
  object, and refusing is often the right call (one-hit wonders).

Observers registered via ``add_decision_observer`` see every eviction with
the victim's full metadata *and the incoming request*, which is what the
decision tracer needs to grade choices against the size-aware oracle.

The cache checks its policy and admission hook where it uses their
answers: the victim must be a resident key, the admission verdict a bool,
and ``victim``/``record``/``admit`` must not raise.  The sanitizer mode
decides what a violation does: ``strict`` raises
:class:`~repro.sanitize.errors.PolicyContractError`; ``normal`` records it
in :attr:`ObjectCache.violations` and swaps in LRU (the residents ordered
by ``last_access``) for a broken policy, always-admit for a broken hook;
``off`` runs both unchecked.
"""

from __future__ import annotations

from operator import attrgetter

from repro.sanitize import resolve_mode
from repro.sanitize.errors import PolicyContractError

from .admission import AdmissionHook, AlwaysAdmit
from .core import (
    CachedObject,
    ObjectCacheError,
    ObjectCacheStats,
    ObjectRequest,
    conservation_problems,
)
from .policies import ObjectEvictionPolicy, ObjectLRUPolicy


class ObjectCache:
    """A single-tier object cache with byte accounting.

    Args:
        capacity_bytes: total budget; an object larger than this can never
            be admitted and is counted as rejected.
        policy: an :class:`ObjectEvictionPolicy` (owned by this cache).
        admission: optional :class:`AdmissionHook`; defaults to always-admit.
        sanitize: what a contract violation does ("off" / "normal" /
            "strict"; None = ``REPRO_SANITIZE`` or the package default).
    """

    def __init__(self, capacity_bytes: int, policy: ObjectEvictionPolicy,
                 admission: AdmissionHook = None, sanitize: str = None):
        if capacity_bytes <= 0:
            raise ObjectCacheError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.admission = admission if admission is not None else AlwaysAdmit()
        self.sanitize = resolve_mode(sanitize)
        self.violations = []  #: recorded contract-violation messages
        self.stats = ObjectCacheStats()
        self.now = 0  # request index; drives ages and decision positions
        self._store = {}  # key -> CachedObject, insertion-ordered
        self._bytes = 0
        self._ever_seen = set()
        self._decision_observers = []

    # -- introspection -----------------------------------------------------

    @property
    def residents(self) -> dict:
        """Key -> CachedObject view (treat as read-only)."""
        return self._store

    def __contains__(self, key: int) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    def add_decision_observer(self, observer) -> None:
        """``observer(victim: CachedObject, incoming: ObjectRequest, now)``."""
        self._decision_observers.append(observer)

    # -- request path ------------------------------------------------------

    def access(self, request: ObjectRequest) -> bool:
        """Serve one request; returns True on hit.

        Order of operations is part of the determinism contract: admission
        ``record`` taps the request first (frequency gates learn from every
        request), then hit/miss resolution, then admission, then
        evict-until-fits, then insertion.
        """
        request.validate()
        try:
            self.admission.record(request, self.now)
        except Exception as error:  # noqa: BLE001 - the contract surface
            if self.sanitize == "off":
                raise
            self._admit_all(f"record raised {_describe(error)}")
        self.stats.accesses += 1
        self.stats.requested_bytes += request.size

        obj = self._store.get(request.key)
        if obj is not None and obj.size == request.size:
            self.stats.hits += 1
            self.stats.hit_bytes += request.size
            obj.hits += 1
            obj.last_access = self.now
            self.policy.on_hit(obj, self.now)
            self.now += 1
            return True

        if obj is not None:
            # Same key, new size: the cached copy is stale.  Drop it (an
            # eviction for the books) and treat the request as a miss.
            self._remove(obj, notify=False)

        self.stats.misses += 1
        self.stats.miss_bytes += request.size

        admitted = request.size <= self.capacity_bytes
        if admitted:
            try:
                admitted = self.admission.admit(request, self.now)
            except Exception as error:  # noqa: BLE001 - the contract surface
                if self.sanitize == "off":
                    raise
                admitted = self._admit_all(f"admit raised {_describe(error)}")
            if (admitted is not True and admitted is not False
                    and self.sanitize != "off"):
                admitted = self._admit_all(
                    f"admit returned {type(admitted).__name__}, expected bool"
                )
        if not admitted:
            self.stats.rejected += 1
            self.stats.rejected_bytes += request.size
            self._ever_seen.add(request.key)
            self.now += 1
            return False

        while self._bytes + request.size > self.capacity_bytes:
            try:
                victim_key = self.policy.victim(self._store, request, self.now)
            except Exception as error:  # noqa: BLE001 - the contract surface
                if self.sanitize == "off":
                    raise
                victim_key = self._evict_lru(
                    f"victim raised {_describe(error)}"
                )
            victim = self._store.get(victim_key)
            if victim is None:
                victim = self._store[self._reject_victim(victim_key, request)]
            self._remove(victim, notify=True, incoming=request)

        self._insert(request)
        self.now += 1
        return False

    def replay(self, requests) -> ObjectCacheStats:
        for request in requests:
            self.access(request)
        return self.stats

    # -- contract violations ------------------------------------------------

    def _reject_victim(self, key, request: ObjectRequest):
        """The key to evict instead of ``key``, which is not a resident."""
        if self.sanitize == "off":
            raise ObjectCacheError(
                f"policy {self.policy.name!r} chose non-resident victim "
                f"{key!r}"
            )
        if key == request.key:
            return self._evict_lru("victim chose the incoming request's key")
        return self._evict_lru(f"victim chose non-resident key {key!r}")

    def _violate(self, kind: str, owner, detail: str) -> None:
        """Record a violation by ``owner``; raise it in strict mode."""
        name = getattr(owner, "name", owner.__class__.__name__)
        self.violations.append(f"{kind} {name!r}: {detail}")
        if self.sanitize == "strict":
            raise PolicyContractError(str(name), detail)

    def _evict_lru(self, detail: str):
        """Degrade a broken policy to LRU; returns LRU's victim key.

        ``last_access`` stamps strictly increase, so sorting the residents
        by them rebuilds the exact recency order.
        """
        self._violate("object policy", self.policy, detail)
        lru = ObjectLRUPolicy()
        for obj in sorted(self._store.values(), key=attrgetter("last_access")):
            lru.on_admit(obj, self.now)
        self.policy = lru
        return lru.victim(self._store, None, self.now)

    def _admit_all(self, detail: str) -> bool:
        """Degrade a broken admission hook to always-admit; returns True."""
        self._violate("admission hook", self.admission, detail)
        self.admission = AlwaysAdmit()
        return True

    # -- internals ---------------------------------------------------------

    def _insert(self, request: ObjectRequest) -> None:
        obj = CachedObject(
            key=request.key,
            size=request.size,
            inserted_at=self.now,
            last_access=self.now,
            seen_before=request.key in self._ever_seen,
        )
        self._store[request.key] = obj
        self._bytes += request.size
        self._ever_seen.add(request.key)
        self.stats.admitted += 1
        self.stats.admitted_bytes += request.size
        self.stats.residents += 1
        self.stats.bytes_in_cache += request.size
        self.policy.on_admit(obj, self.now)

    def _remove(self, obj: CachedObject, notify: bool,
                incoming: ObjectRequest = None) -> None:
        del self._store[obj.key]
        self._bytes -= obj.size
        self.stats.evictions += 1
        self.stats.evicted_bytes += obj.size
        self.stats.residents -= 1
        self.stats.bytes_in_cache -= obj.size
        self.policy.on_evict(obj, self.now)
        if notify:
            for observer in self._decision_observers:
                observer(obj, incoming, self.now)

    # -- invariants --------------------------------------------------------

    def check_conservation(self) -> list:
        """Byte-accounting problems (one line each); [] when balanced."""
        problems = conservation_problems(
            self.stats.as_dict(), self.capacity_bytes
        )
        actual_bytes = sum(obj.size for obj in self._store.values())
        if actual_bytes != self._bytes:
            problems.append(
                f"resident byte ledger drifted: {self._bytes} tracked != "
                f"{actual_bytes} actual"
            )
        if self.stats.bytes_in_cache != self._bytes:
            problems.append(
                "stats.bytes_in_cache out of step with ledger: "
                f"{self.stats.bytes_in_cache} != {self._bytes}"
            )
        if self.stats.residents != len(self._store):
            problems.append(
                f"stats.residents out of step: {self.stats.residents} != "
                f"{len(self._store)}"
            )
        return problems


def _describe(error: Exception) -> str:
    return f"{error.__class__.__name__}: {error}"
