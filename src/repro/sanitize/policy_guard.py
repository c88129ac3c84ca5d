"""The policy contract sanitizer: :class:`CheckedPolicy`.

Wraps a :class:`~repro.cache.replacement.base.ReplacementPolicy` and
enforces its contract on every decision:

* ``victim`` must return a way index in ``range(ways)``, or
  :data:`~repro.cache.replacement.base.BYPASS` only when the cache honours
  bypass; the returned way must hold a valid line when the set is full;
* every ``on_evict`` must be paired with a following ``on_fill`` before the
  next eviction in flight;
* ``bind`` must be called exactly once.

In **strict** mode a violation raises a typed
:class:`~repro.sanitize.errors.PolicyContractError` naming the policy and
set.  In **normal** mode the wrapper records the violation and degrades the
policy to LRU for the rest of the run — ``victim`` switches to
``cache_set.lru_way()`` (recency metadata is maintained by the cache
itself, so LRU needs no policy state) and the offending policy's hooks are
disconnected so corrupt internal state can no longer raise.  The first
violation per run is also counted into telemetry
(``sanitize.policy_violations``), which is free when telemetry is off.

Cost model: ``on_hit`` / ``on_miss`` are not wrapped at all — the wrapper
rebinds the inner policy's bound methods as its own instance attributes, so
the per-access hot path calls the same objects unwrapped code would.  Only
the per-miss surface (``victim`` / ``on_evict`` / ``on_fill``) pays a few
integer comparisons.  In **off** mode :func:`wrap_policy` returns the
policy itself — structurally zero cost.
"""

from __future__ import annotations

import threading

from repro.cache.replacement.base import BYPASS
from repro.telemetry import get_registry

from repro.sanitize.errors import PolicyContractError


def _noop(*args, **kwargs) -> None:
    """Replacement hook for a degraded policy (never raises)."""


class CheckedPolicy:
    """Contract-enforcing proxy around a replacement policy.

    Not a :class:`ReplacementPolicy` subclass on purpose: attribute lookups
    that the wrapper does not intercept (``name``, ``uses_pc``,
    ``needs_line_metadata``, policy-specific state) must fall through to
    the wrapped instance via ``__getattr__``, which only fires for
    *missing* attributes.

    Args:
        policy: The policy to guard.
        strict: Raise :class:`PolicyContractError` on violation instead of
            degrading to LRU.
        allow_bypass: Whether the owning cache honours ``BYPASS`` (a bypass
            from the policy is a violation otherwise).
    """

    def __init__(self, policy, strict: bool = False, allow_bypass: bool = False):
        self._inner = policy
        self._strict = strict
        self._allow_bypass = allow_bypass
        self._degraded = False
        #: True once the wrapper has observed a ``bind`` (a pre-bound
        #: policy arrives with geometry already set; that first bind
        #: happened outside the wrapper and is not double-counted).
        self._bound = getattr(policy, "num_sets", 0) > 0
        self._pending_evictions = 0
        self.violations = []  #: recorded contract-violation descriptions
        #: Serializes the degrade transition: concurrent callers sharing
        #: one wrapper must record the first violation exactly once.
        self._degrade_lock = threading.Lock()
        # Per-access hooks are rebound directly: zero wrapper overhead on
        # the hit path (see module docstring).
        self.on_hit = policy.on_hit
        self.on_miss = policy.on_miss

    # -- delegation --------------------------------------------------------

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    @property
    def wrapped(self):
        """The guarded policy instance."""
        return self._inner

    @property
    def degraded(self) -> bool:
        """True once a violation has demoted the policy to LRU."""
        return self._degraded

    # -- violation handling ------------------------------------------------

    def _record(self, name, detail: str, set_index: int) -> None:
        self.violations.append(
            f"policy {name!r}"
            + (f" (set {set_index})" if set_index >= 0 else "")
            + f": {detail}"
        )
        get_registry().counter(
            "sanitize.policy_violations", policy=str(name)
        ).inc()
        # A replay with decision tracing active also logs the violation as
        # a decision-log event (violations are decisions too — the wrong
        # kind).  Imported lazily: violations are rare, and the sanitizer
        # must not depend on the tracing module at import time.
        from repro.telemetry.decisions import active_trace

        trace = active_trace()
        if trace is not None:
            trace.record_violation(str(name), detail, set_index)

    def _violate(self, detail: str, set_index: int = -1) -> None:
        name = getattr(self._inner, "name", self._inner.__class__.__name__)
        if self._strict:
            self._record(name, detail, set_index)
            raise PolicyContractError(str(name), detail, set_index=set_index)
        # Normal mode degrades to LRU; the transition (and its recording)
        # happens exactly once even when concurrent callers race past the
        # ``self._degraded`` fast checks on the contract surface.
        with self._degrade_lock:
            if self._degraded:
                return
            self._degraded = True
            # Disconnect the offending policy entirely: corrupt internal
            # state must not be able to raise from later hook calls.
            self.on_hit = _noop
            self.on_miss = _noop
            self._record(name, detail, set_index)

    # -- guarded contract surface ------------------------------------------

    def bind(self, config) -> None:
        if self._bound:
            self._violate("bind called more than once")
            if self._degraded:
                return
        self._bound = True
        self._inner.bind(config)

    def on_evict(self, set_index, way, line, access) -> None:
        if self._degraded:
            return
        if self._pending_evictions:
            self._violate(
                "on_evict while a previous eviction awaits its on_fill",
                set_index,
            )
            if self._degraded:
                return
        self._pending_evictions += 1
        self._inner.on_evict(set_index, way, line, access)

    def on_fill(self, set_index, way, line, access) -> None:
        if self._degraded:
            return
        if self._pending_evictions:
            self._pending_evictions -= 1
        self._inner.on_fill(set_index, way, line, access)

    def victim(self, set_index, cache_set, access):
        if self._degraded:
            return cache_set.lru_way()
        way = self._inner.victim(set_index, cache_set, access)
        if way == BYPASS:
            if self._allow_bypass:
                return BYPASS
            self._violate(
                "returned BYPASS but the cache does not allow bypass",
                set_index,
            )
            return cache_set.lru_way()
        valid = False
        try:
            valid = 0 <= way < cache_set.ways
        except TypeError:
            pass
        if not valid:
            self._violate(
                f"victim way {way!r} outside range(ways={cache_set.ways})",
                set_index,
            )
            return cache_set.lru_way()
        if not cache_set.lines[way].valid:
            self._violate(
                f"victim way {way} holds no valid line", set_index
            )
            return cache_set.lru_way()
        return way

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict:
        # Locks and bound methods do not pickle; carry the inner policy and
        # the plain state, and rebuild the rest on restore.
        state = self.__dict__.copy()
        del state["_degrade_lock"]
        for hook in ("on_hit", "on_miss"):
            state[hook] = None if state[hook] is not _noop else _noop
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._degrade_lock = threading.Lock()
        for hook in ("on_hit", "on_miss"):
            if self.__dict__[hook] is None:
                self.__dict__[hook] = getattr(self._inner, hook)

    # -- introspection ------------------------------------------------------

    def assert_lifecycle_balanced(self) -> None:
        """Raise if an ``on_evict`` was never paired with an ``on_fill``.

        An end-of-run check for tests: the cache fills immediately after
        every eviction, so a non-zero balance means the driving cache (or a
        hand-written harness) broke the hook protocol.
        """
        if self._pending_evictions:
            name = getattr(self._inner, "name", "policy")
            raise PolicyContractError(
                str(name),
                f"{self._pending_evictions} on_evict call(s) without a "
                f"matching on_fill",
            )

    def __repr__(self) -> str:
        mode = "strict" if self._strict else "normal"
        return f"CheckedPolicy({self._inner!r}, mode={mode})"
