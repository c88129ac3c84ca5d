"""Phase attribution: where replay wall time actually goes.

The vectorized-kernel roadmap item needs more than an accesses/sec number —
it needs to know *which* hot-path phase to attack.  This module splits the
replay loop's wall time into named, mutually exclusive phases:

=====================  =======================================================
phase                  meaning
=====================  =======================================================
``trace_decode``       loop overhead outside ``cache.access`` (iteration,
                       warm-up bookkeeping, cycle accumulation)
``tag_lookup``         ``cache.access`` minus everything attributed below
                       (set indexing, tag match, recency/stats maintenance)
``victim_scoring``     ``policy.victim``
``policy_update``      the ``on_hit``/``on_miss``/``on_evict``/``on_fill``
                       (``on_admit`` for objcache) policy hooks
``admission``          admission ``record`` + ``admit`` (objcache only)
``telemetry``          registered access/decision observers
=====================  =======================================================

Accounting is *subtractive*: raw timers nest (``victim`` inside ``access``
inside the loop) and :meth:`PhaseProfile.finish` derives exclusive phases so
the phase sum equals the measured loop wall time exactly (modulo a clamp of
float-epsilon negatives).  Timings are noisy; the phase *structure* — names,
call counts, access count — is a pure function of the deterministic
simulation, so :meth:`PhaseProfile.structure_digest` excludes every timing
field and is byte-identical across repeats, machines, and worker counts.

The profiled wrappers are opt-in and additive: ``replay(..., profile=None)``
(the default) constructs the plain :class:`~repro.cache.cache.Cache` and the
hot loop is untouched.  ``ProfiledCache``/``ProfiledObjectCache`` change
*when* things are measured, never *what* is computed — the differential
tests assert bit-identical simulation results against the unprofiled path.
"""

from __future__ import annotations

import hashlib
import json
import time

#: The closed phase taxonomy (docs/observability.md mirrors this table).
PHASES = (
    "trace_decode",
    "tag_lookup",
    "victim_scoring",
    "policy_update",
    "admission",
    "telemetry",
)

ENGINES = ("replay", "objcache")


class PhaseProfile:
    """Accumulates raw nested timers; ``finish()`` derives exclusive phases.

    One instance profiles one replay (or one object-cache replay).  ``raw``
    holds inclusive accumulators; ``calls`` holds deterministic invocation
    counts per phase; ``phases`` (after :meth:`finish`) holds the exclusive
    seconds whose sum reconciles with ``loop_seconds``.
    """

    def __init__(self, engine: str) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown profile engine {engine!r}; expected one of {ENGINES}"
            )
        self.engine = engine
        self.accesses = 0
        self.loop_seconds = 0.0
        self.raw = {
            "access": 0.0,
            "victim": 0.0,
            "hooks": 0.0,
            "observers": 0.0,
            "admission": 0.0,
        }
        self.calls = {}
        self.phases = {}

    def count(self, phase: str, n: int = 1) -> None:
        self.calls[phase] = self.calls.get(phase, 0) + n

    def finish(self, loop_seconds: float) -> None:
        """Fold one timed loop into the profile and (re)derive phases.

        Accumulative: a cache replayed twice calls ``finish`` twice and the
        profile covers both loops.  Exclusive phases are derived so that
        ``sum(phases) == loop_seconds`` exactly — each subtraction removes
        a timer that nests inside the minuend — with negatives (possible
        only through float rounding) clamped to zero.
        """
        self.loop_seconds += loop_seconds
        raw = self.raw
        inside_access = (
            raw["victim"] + raw["hooks"] + raw["observers"] + raw["admission"]
        )
        phases = {
            "trace_decode": max(0.0, self.loop_seconds - raw["access"]),
            "tag_lookup": max(0.0, raw["access"] - inside_access),
            "victim_scoring": raw["victim"],
            "policy_update": raw["hooks"],
            "telemetry": raw["observers"],
        }
        if self.engine == "objcache":
            phases["admission"] = raw["admission"]
        self.calls["trace_decode"] = self.accesses
        self.calls["tag_lookup"] = self.accesses
        self.phases = phases

    # -- reporting ---------------------------------------------------------

    def reconciliation(self) -> dict:
        """Phase-sum vs loop wall time (the <=1% acceptance invariant)."""
        phase_sum = sum(self.phases.values())
        error = (
            abs(phase_sum - self.loop_seconds) / self.loop_seconds
            if self.loop_seconds > 0 else 0.0
        )
        return {
            "phase_sum_seconds": round(phase_sum, 9),
            "loop_seconds": round(self.loop_seconds, 9),
            "relative_error": round(error, 9),
        }

    def as_dict(self) -> dict:
        """Full report (timings included) for bench payloads."""
        per_access = 1e9 / self.accesses if self.accesses else 0.0
        return {
            "engine": self.engine,
            "accesses": self.accesses,
            "loop_seconds": round(self.loop_seconds, 9),
            "reconciliation": self.reconciliation(),
            "phases": {
                name: {
                    "seconds": round(seconds, 9),
                    "calls": self.calls.get(name, 0),
                    "per_access_ns": round(seconds * per_access, 1),
                }
                for name, seconds in sorted(self.phases.items())
            },
        }

    def structure(self) -> dict:
        """The deterministic skeleton: every timing field excluded."""
        return {
            "engine": self.engine,
            "accesses": self.accesses,
            "calls": {name: self.calls[name] for name in sorted(self.calls)},
            "phases": sorted(self.phases),
        }

    def structure_digest(self) -> str:
        """sha256 over the canonical structure JSON (repeat/jobs-stable)."""
        body = json.dumps(
            self.structure(), separators=(",", ":"), sort_keys=True
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()


# -- CPU cache path -----------------------------------------------------------


class _TimedPolicy:
    """Timing proxy around a CPU policy.

    Only the hot-path contract methods are intercepted; everything else
    (``bind``, ``name``, ``needs_line_metadata``, ...) delegates, so the
    proxy is behaviourally transparent.
    """

    def __init__(self, inner, profile: PhaseProfile) -> None:
        self._inner = inner
        self._profile = profile

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def victim(self, set_index, cache_set, access):
        profile = self._profile
        started = time.perf_counter()
        way = self._inner.victim(set_index, cache_set, access)
        profile.raw["victim"] += time.perf_counter() - started
        profile.count("victim_scoring")
        return way

    def on_hit(self, set_index, way, line, access):
        profile = self._profile
        started = time.perf_counter()
        self._inner.on_hit(set_index, way, line, access)
        profile.raw["hooks"] += time.perf_counter() - started
        profile.count("policy_update")

    def on_miss(self, set_index, access):
        profile = self._profile
        started = time.perf_counter()
        self._inner.on_miss(set_index, access)
        profile.raw["hooks"] += time.perf_counter() - started
        profile.count("policy_update")

    def on_evict(self, set_index, way, line, access):
        profile = self._profile
        started = time.perf_counter()
        self._inner.on_evict(set_index, way, line, access)
        profile.raw["hooks"] += time.perf_counter() - started
        profile.count("policy_update")

    def on_fill(self, set_index, way, line, access):
        profile = self._profile
        started = time.perf_counter()
        self._inner.on_fill(set_index, way, line, access)
        profile.raw["hooks"] += time.perf_counter() - started
        profile.count("policy_update")


def _timed_observer(callback, profile: PhaseProfile):
    def timed(*args):
        started = time.perf_counter()
        callback(*args)
        profile.raw["observers"] += time.perf_counter() - started
        profile.count("telemetry")

    return timed


def make_profiled_cache(config, policy, profile, **kwargs):
    """A :class:`~repro.cache.cache.Cache` with per-phase timers attached.

    Identical simulation behaviour (the differential test replays the same
    stream through both and asserts bit-identical results); the only
    difference is that ``access``, the policy, and any attached observers
    are bracketed with ``perf_counter`` feeding ``profile``.  Imported and
    subclassed at call time so this module never imports the cache layer
    at import time (the cache layer imports telemetry).
    """
    from repro.cache.cache import Cache

    class ProfiledCache(Cache):
        def __init__(self):
            # The contract check runs inside Cache.access, so its cost is
            # booked to the engine's own phases, not to the policy's.
            super().__init__(config, policy, **kwargs)
            self.profile = profile
            self.policy = _TimedPolicy(self.policy, profile)

        def access(self, access):
            started = time.perf_counter()
            result = super().access(access)
            profile.raw["access"] += time.perf_counter() - started
            profile.accesses += 1
            return result

        def add_access_observer(self, callback):
            super().add_access_observer(_timed_observer(callback, profile))

        def add_decision_observer(self, callback):
            super().add_decision_observer(_timed_observer(callback, profile))

    return ProfiledCache()


# -- object cache path --------------------------------------------------------


class _TimedObjectPolicy:
    """Timing proxy for object policies (``victim`` and the lifecycle hooks)."""

    def __init__(self, inner, profile: PhaseProfile) -> None:
        self._inner = inner
        self._profile = profile

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def victim(self, residents, incoming, now):
        profile = self._profile
        started = time.perf_counter()
        key = self._inner.victim(residents, incoming, now)
        profile.raw["victim"] += time.perf_counter() - started
        profile.count("victim_scoring")
        return key

    def on_admit(self, obj, now):
        profile = self._profile
        started = time.perf_counter()
        self._inner.on_admit(obj, now)
        profile.raw["hooks"] += time.perf_counter() - started
        profile.count("policy_update")

    def on_hit(self, obj, now):
        profile = self._profile
        started = time.perf_counter()
        self._inner.on_hit(obj, now)
        profile.raw["hooks"] += time.perf_counter() - started
        profile.count("policy_update")

    def on_evict(self, obj, now):
        profile = self._profile
        started = time.perf_counter()
        self._inner.on_evict(obj, now)
        profile.raw["hooks"] += time.perf_counter() - started
        profile.count("policy_update")


class _TimedAdmission:
    """Timing proxy for admission hooks (``record`` + ``admit``)."""

    def __init__(self, inner, profile: PhaseProfile) -> None:
        self._inner = inner
        self._profile = profile

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def record(self, request, now):
        profile = self._profile
        started = time.perf_counter()
        self._inner.record(request, now)
        profile.raw["admission"] += time.perf_counter() - started
        profile.count("admission")

    def admit(self, request, now):
        profile = self._profile
        started = time.perf_counter()
        verdict = self._inner.admit(request, now)
        profile.raw["admission"] += time.perf_counter() - started
        profile.count("admission")
        return verdict


def make_profiled_object_cache(capacity_bytes, policy, profile,
                               admission=None):
    """An :class:`~repro.objcache.cache.ObjectCache` with phase timers.

    ``replay`` additionally brackets the whole request loop and calls
    :meth:`PhaseProfile.finish`, so a single ``cache.replay(requests)`` is
    a complete profiled run.
    """
    from repro.objcache.cache import ObjectCache

    class ProfiledObjectCache(ObjectCache):
        def __init__(self):
            super().__init__(capacity_bytes, policy, admission=admission)
            self.profile = profile
            self.policy = _TimedObjectPolicy(self.policy, profile)
            self.admission = _TimedAdmission(self.admission, profile)

        def access(self, request):
            started = time.perf_counter()
            hit = super().access(request)
            profile.raw["access"] += time.perf_counter() - started
            profile.accesses += 1
            return hit

        def replay(self, requests):
            started = time.perf_counter()
            stats = super().replay(requests)
            profile.finish(time.perf_counter() - started)
            return stats

        def add_decision_observer(self, observer):
            super().add_decision_observer(_timed_observer(observer, profile))

    return ProfiledObjectCache()


# -- determinism harness ------------------------------------------------------


def _structure_cell(cell: dict) -> dict:
    """Worker: profile one (engine, policy) cell, return its structure.

    Module-level so :func:`profile_structures` can fan out over a process
    pool; ``cell`` is a plain dict of primitives for picklability.  The
    :class:`PhaseProfile` constructor rejects an engine it cannot attribute.
    """
    profile = PhaseProfile(cell["engine"])
    if profile.engine == "replay":
        from repro.eval.runner import prepare_workload, replay
        from repro.eval.workloads import EvalConfig

        config = EvalConfig(
            scale=cell.get("scale", 64),
            trace_length=cell.get("trace_length", 1500),
            seed=cell.get("seed", 7),
        )
        trace = config.trace(cell.get("workload", "429.mcf"))
        prepared = prepare_workload(config, trace)
        replay(prepared, cell.get("policy", "lru"), profile=profile)
        return profile.structure()
    from repro.objcache import generate_object_trace, make_object_policy

    trace = generate_object_trace(
        name="perf-cell", kind="zipf",
        objects=cell.get("objects", 400),
        length=cell.get("length", 2000),
        seed=cell.get("seed", 7), alpha=cell.get("alpha", 1.0),
        sizes={"dist": "lognormal", "min": 256, "max": 1 << 16,
               "correlate": "inverse"},
    )
    cache = make_profiled_object_cache(
        cell.get("capacity_bytes", 1_000_000),
        make_object_policy(cell.get("policy", "lru")),
        profile,
    )
    cache.replay(trace.requests)
    return profile.structure()


def profile_structures(cells, jobs: int = 1) -> list:
    """Phase structures for ``cells``, optionally across worker processes.

    The determinism contract this exists to test: the returned structures
    (and their digests) are byte-identical whatever ``jobs`` is — phase
    structure is simulation behaviour, and simulation behaviour does not
    depend on which process ran it.
    """
    cells = list(cells)
    if jobs <= 1:
        return [_structure_cell(cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_structure_cell, cells))


# -- flamegraph capture -------------------------------------------------------


def _frame_name(code) -> str:
    if isinstance(code, str):
        return code.replace(" ", "_")
    from pathlib import Path

    return f"{Path(code.co_filename).name}:{code.co_firstlineno}:{code.co_name}"


def collapse_profile(profile) -> str:
    """Collapsed-stack ("folded") lines from a ``cProfile.Profile``.

    Two-level approximation in the style of flameprof: one line per
    function with its self time, one ``caller;callee`` line per observed
    edge with the callee's inclusive time, weights in integer microseconds.
    Any flamegraph renderer that accepts Brendan Gregg's folded format can
    draw it.  Lines are sorted so the artifact is deterministic given the
    same capture.
    """
    lines = []
    for entry in profile.getstats():
        name = _frame_name(entry.code)
        self_us = int(round(entry.inlinetime * 1e6))
        if self_us > 0:
            lines.append(f"{name} {self_us}")
        for sub in entry.calls or ():
            edge_us = int(round(sub.totaltime * 1e6))
            if edge_us > 0:
                lines.append(f"{name};{_frame_name(sub.code)} {edge_us}")
    return "\n".join(sorted(lines)) + "\n"


def capture_collapsed(fn):
    """Run ``fn()`` under cProfile; returns ``(result, folded_text)``."""
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, collapse_profile(profiler)
