"""Phase attribution: where replay wall time goes.

``repro bench`` splits each policy's replay into phases without a
profiler: it times the one engine, unprofiled, in a chain of runs over one
prepared stream (:mod:`repro.eval.bench` builds them).  Each run adds one
thing to the run before it, and the time it adds is its phase:

=====================  =======================================================
phase                  what its run adds to the run before
=====================  =======================================================
``trace_decode``       nothing: the replay loop alone, fed the recorded
                       answers instead of a cache (``ObjectCache.replay``'s
                       request loop for the object cache)
``tag_lookup``         the engine, with the recorded victims replayed and
                       no-op policy hooks (the object cache also replays the
                       recorded admission verdicts)
``policy_update``      the real policy's hooks (``on_hit``/``on_miss``/
                       ``on_evict``/``on_fill``; ``on_admit``/``on_hit``/
                       ``on_evict`` for the object cache)
``victim_scoring``     the real policy's ``victim``, ``sanitize="off"``
``admission``          the real admission hook, ``record`` + ``admit``
                       (object cache only)
``sanitize``           the configured sanitizer mode
=====================  =======================================================

:class:`PhaseProfile` is the record: it reduces timed rounds of those runs
to per-phase seconds whose sum is the replay's wall time
(``loop_seconds``, which also gives the bench key's rate), with each
phase's spread over the rounds.  Timings are noisy; the *structure* (phase
names, call counts, access count and the digest of the simulated result)
is a pure function of the deterministic simulation, so
:meth:`PhaseProfile.structure_digest` excludes every timing field.
"""

from __future__ import annotations

import hashlib
import json

#: Each engine's chain of runs, named by the phase each run adds.
ENGINES = {
    "replay": ("trace_decode", "tag_lookup", "policy_update",
               "victim_scoring", "sanitize"),
    "objcache": ("trace_decode", "tag_lookup", "policy_update",
                 "victim_scoring", "admission", "sanitize"),
}

#: The closed phase taxonomy (docs/observability.md mirrors this table).
PHASES = ENGINES["objcache"]


class PhaseProfile:
    """One replay's wall time split into phases, reduced from timed rounds.

    A round times every run of the engine's chain once (:data:`ENGINES`).
    Run ``k`` adds phase ``k`` to run ``k - 1``, so within a round a phase
    is the difference of two adjacent runs and the phases add up to the
    last run exactly.  :meth:`reduce` keeps the faster half of the rounds
    by that total and averages every phase over them: the reported phases
    sum to the reported ``loop_seconds``.  ``spread`` holds each phase's
    interquartile range over all the rounds.

    ``calls`` counts what each phase did in the replay (evictions for
    ``victim_scoring``, hook calls for ``policy_update``, ...) and
    ``digest`` names the simulated result every run reproduced.
    """

    def __init__(self, engine: str, accesses: int = 0, calls: dict = None,
                 digest: str = None) -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"unknown profile engine {engine!r}; expected one of "
                f"{tuple(ENGINES)}"
            )
        self.engine = engine
        self.accesses = accesses
        self.calls = dict(calls or {})
        self.digest = digest
        self.loop_seconds = 0.0
        self.phases = {}
        self.spread = {}

    def reduce(self, rounds) -> None:
        """Derive the phases from ``rounds``: per round, the seconds of
        every run in chain order."""
        # Imported here: ``statistics`` pulls in ``decimal`` and
        # ``fractions``, and every process that imports telemetry would
        # carry them.
        from statistics import fmean

        chain = ENGINES[self.engine]
        differences = []
        for runs in rounds:
            if len(runs) != len(chain):
                raise ValueError(
                    f"a {self.engine} round times {len(chain)} runs, "
                    f"got {len(runs)}"
                )
            differences.append(
                [run - below for run, below in zip(runs, [0.0, *runs])]
            )
        kept = sorted(range(len(rounds)), key=lambda index: rounds[index][-1])
        kept = kept[:(len(kept) + 1) // 2]
        self.loop_seconds = fmean(rounds[index][-1] for index in kept)
        self.phases = {
            phase: fmean(differences[index][position] for index in kept)
            for position, phase in enumerate(chain)
        }
        self.spread = {
            phase: _interquartile_range(
                [difference[position] for difference in differences]
            )
            for position, phase in enumerate(chain)
        }

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
            "digest": self.digest,
            "loop_seconds": round(self.loop_seconds, 9),
            "reconciliation": self.reconciliation(),
            "phases": {
                name: {
                    "seconds": round(seconds, 9),
                    "calls": self.calls.get(name, 0),
                    "per_access_ns": round(seconds * per_access, 1),
                    "spread_ns": round(self.spread[name] * per_access, 1),
                }
                for name, seconds in sorted(self.phases.items())
            },
        }

    def structure(self) -> dict:
        """The deterministic skeleton: every timing field excluded."""
        return {
            "engine": self.engine,
            "accesses": self.accesses,
            "digest": self.digest,
            "calls": {name: self.calls[name] for name in sorted(self.calls)},
            "phases": sorted(self.phases),
        }

    def structure_digest(self) -> str:
        """sha256 over the canonical structure JSON (repeat/jobs-stable)."""
        body = json.dumps(
            self.structure(), separators=(",", ":"), sort_keys=True
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _interquartile_range(values: list) -> float:
    from statistics import quantiles

    if len(values) < 2:
        return 0.0
    first, _, third = quantiles(values, n=4, method="inclusive")
    return third - first

