"""Replay phase-split micro-benchmarks (``repro bench``).

Two fixed, small, deterministic families, one per engine:

* **replay**: a CPU workload prepared once (warm prep-cache path, so pass 1
  is excluded) and its recorded LLC stream replayed per policy;
* **objcache**: the golden object-cache scenario shape (Zipfian trace,
  lognormal inverse-correlated sizes) per object policy, plus the
  admission-gated variant ``lru+freq_gate``.

Each key's replay is split into phases, so a regression report can name
the phase that got slower, not just the number that moved.  The split
times the one engine, unprofiled: :func:`replay_phases` and
:func:`objcache_phases` record one sanitizer-off replay (its victims,
admission verdicts and per-access answers), then time a chain of runs that
each add one piece to the run before (:mod:`repro.telemetry.perf` names
them).  The runs before the real policy get :class:`Scripted` stand-ins
that replay the recorded answers.  Every run after the loop must reproduce
the recorded result exactly, or the bench raises; the digest of that
result goes into the payload.  A key's rate is its accesses over the
split's ``loop_seconds``, the time of the chain's last run: the real
policy under the configured sanitizer.  So the gate and its phase blame
read the same runs.

Every payload is schema-versioned (:data:`BENCH_SCHEMA_VERSION`) and stamps
the environment (python, machine, git SHA + dirty flag).  The snapshots
are committed as ``BENCH_*.json`` at the repo root, refreshed once per PR,
so their git history is the trajectory; :func:`compare` gates a fresh run
against them.  Numbers are machine-dependent by nature — the gate tracks
*relative* movement with a generous threshold, not absolute truth.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from repro.telemetry.perf import ENGINES, PhaseProfile
from repro.telemetry.registry import deterministic_digest

#: Bumped whenever a payload's shape changes (snapshots of another schema
#: still gate on rates, but their phases are not compared).
#: v2: added schema/git stamps, phases and more bench families.
#: v3: phases are differences of unprofiled runs, with ``spread_ns``, and
#: carry the ``digest`` of the result the runs reproduced.
#: v4: a rate is ``accesses / loop_seconds`` of its key's phase record, not
#: a best-of-N plain run, and the payload has no ``repeats``; phases as v3.
BENCH_SCHEMA_VERSION = 4

#: Timed rounds of the phase split per bench key; the run order rotates
#: from round to round.
PHASE_ROUNDS = 8

#: Relative rate drop tolerated before the gate fails.  Generous by design:
#: CI machines have noisy neighbours, and a gate that cries wolf gets
#: deleted.  ``--tolerance`` overrides it.
THRESHOLD = 0.25

CPU_HOOKS = ("on_hit", "on_miss", "on_evict", "on_fill")
OBJECT_HOOKS = ("on_admit", "on_hit", "on_evict")

#: The fixed objcache benchmark shape (mirrors scenarios/objcache goldens).
OBJCACHE_BENCH = {
    "objects": 4000,
    "length": 20_000,
    "seed": 7,
    "alpha": 1.0,
    "capacity_bytes": 12_000_000,
    "policies": ("lru", "lru_size", "gdsf", "rlr", "rlr_size"),
    #: admission gates benched in front of an LRU cache (key "lru+<gate>").
    "admissions": ("freq_gate",),
}

#: The fixed CPU replay benchmark shape.
REPLAY_BENCH = {
    "workload": "473.astar",
    "scale": 16,
    "trace_length": 20_000,
    "seed": 7,
    "policies": ("lru", "srrip", "drrip", "ship++", "rlr"),
}


def _merged(default: dict, spec) -> dict:
    return dict(default) if spec is None else {**default, **spec}


def _git_state() -> dict:
    """Current commit SHA + dirty flag; ``None`` fields outside a repo."""
    import subprocess

    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    sha = head.stdout.strip() if head.returncode == 0 else None
    dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {"sha": sha or None, "dirty": dirty}


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git": _git_state(),
    }


# -- phase split ----------------------------------------------------------------


class Scripted:
    """Stands in for ``policy``, answering from a recorded list.

    ``victim`` (a CPU or object policy's) and ``admit`` (an admission
    hook's) return the next recorded answer; every other hook does
    nothing, except those named in ``hooks``, which are ``policy``'s own
    bound methods set on the instance, so no wrapper sits between the
    engine and a real hook.  Binding the stand-in binds ``policy``.
    """

    def __init__(self, policy, answers, hooks=()) -> None:
        self.name = policy.name
        self.needs_line_metadata = getattr(policy, "needs_line_metadata",
                                           True)
        self.bind = getattr(policy, "bind", self._ignore)
        self._answer = iter(answers).__next__
        for hook in hooks:
            setattr(self, hook, getattr(policy, hook))

    def victim(self, *decision):
        try:
            return self._answer()
        except StopIteration:
            raise RuntimeError(
                f"scripted {self.name!r} ran out of recorded answers: the "
                f"run did not reproduce the recorded replay"
            ) from None

    admit = victim

    def _ignore(self, *event):
        pass

    on_hit = on_miss = on_evict = on_fill = on_admit = record = _ignore


def _recorded(answers):
    """The cache of the loop-alone run: it answers from the recording."""
    # next(recorded, request): the request is only the unused default.
    return SimpleNamespace(access=partial(next, iter(answers)),
                           reset_stats=lambda: None, stats=None)


def _split(engine, label, runs, drive, outcome, expected, calls):
    """Time the chain ``runs`` for :data:`PHASE_ROUNDS` rounds.

    ``runs`` holds one zero-argument cache factory per phase of
    ``engine``'s chain, the loop alone first.  ``drive(cache)`` is the
    timed loop; for every run after the first, ``outcome(cache, what
    drive returned)`` must equal ``expected`` or the split raises.
    """
    def timed(index):
        cache = runs[index]()
        started = time.perf_counter()
        returned = drive(cache)
        seconds = time.perf_counter() - started
        if index and outcome(cache, returned) != expected:
            raise RuntimeError(
                f"phase split of {label!r}: the "
                f"{ENGINES[engine][index]} run did not reproduce the "
                f"recorded replay, so its time would split a different "
                f"simulation"
            )
        return seconds

    rounds = []
    for round_index in range(PHASE_ROUNDS):
        seconds = [0.0] * len(runs)
        for step in range(len(runs)):
            index = (round_index + step) % len(runs)
            seconds[index] = timed(index)
        rounds.append(seconds)
    profile = PhaseProfile(engine, calls["trace_decode"], calls,
                           deterministic_digest(expected))
    profile.reduce(rounds)
    return profile


def replay_phases(prepared, make_policy):
    """Split one policy's replay of ``prepared`` into phases.

    ``make_policy()`` returns a fresh policy instance; every run gets its
    own.  Returns a :class:`~repro.telemetry.perf.PhaseProfile`.
    """
    from repro.cache.cache import Cache
    from repro.eval.runner import replay, replay_loop, replay_result

    victims = []
    expected = replay(
        prepared, make_policy(), sanitize="off",
        observers=[lambda cache_set, way, line, access: victims.append(way)],
    )
    name = expected.policy_name
    expected = dataclasses.asdict(expected)

    def cache_for(policy, sanitize="off"):
        policy.bind(prepared.llc_config)
        return Cache(prepared.llc_config, policy,
                     detailed=getattr(policy, "needs_line_metadata", True),
                     sanitize=sanitize)

    def drive(cache):
        return replay_loop(prepared, cache.access, cache.reset_stats)

    def outcome(cache, cycles):
        return dataclasses.asdict(replay_result(prepared, name, cache, cycles))

    # The answers the loop alone is fed, from one untimed pass of the
    # scripted engine (the engine run checks that it reproduces).
    cache = cache_for(Scripted(make_policy(), victims))
    answers = [cache.access(record) for record in prepared.llc_records]
    accesses = len(answers)
    misses = sum(1 for result in answers if not result.hit)
    runs = [
        partial(_recorded, answers),
        lambda: cache_for(Scripted(make_policy(), victims)),
        lambda: cache_for(Scripted(make_policy(), victims, CPU_HOOKS)),
        lambda: cache_for(make_policy()),
        lambda: cache_for(make_policy(), sanitize=None),
    ]
    calls = {
        "trace_decode": accesses,
        "tag_lookup": accesses,
        "policy_update": accesses + misses + len(victims),
        "victim_scoring": len(victims),
        "sanitize": accesses,
    }
    return _split("replay", name, runs, drive, outcome, expected, calls)


def objcache_phases(requests, capacity_bytes: int, make_policy,
                    make_gate, key: str = "objcache"):
    """Split one object policy's replay of ``requests`` into phases.

    ``make_policy()`` and ``make_gate()`` return a fresh eviction policy
    and admission hook; every run gets its own.  Returns a
    :class:`~repro.telemetry.perf.PhaseProfile`.
    """
    from repro.objcache import ObjectCache

    victims, verdicts = [], []
    gate = make_gate()
    real_admit = gate.admit

    def admit(request, now):
        verdicts.append(real_admit(request, now))
        return verdicts[-1]

    gate.admit = admit
    cache = ObjectCache(capacity_bytes, make_policy(), admission=gate,
                        sanitize="off")
    cache.add_decision_observer(
        lambda victim, incoming, now: victims.append(victim.key)
    )
    answers = [cache.access(request) for request in requests]
    stats = cache.stats

    def cache_for(policy, admission, sanitize="off"):
        return ObjectCache(capacity_bytes, policy, admission=admission,
                           sanitize=sanitize)

    def drive(cache):
        # The one request loop, also run on the loop-alone stand-in.
        ObjectCache.replay(cache, requests)

    def outcome(cache, returned):
        return cache.stats.as_dict()

    def recorded_gate():
        return Scripted(make_gate(), verdicts)

    runs = [
        partial(_recorded, answers),
        lambda: cache_for(Scripted(make_policy(), victims), recorded_gate()),
        lambda: cache_for(Scripted(make_policy(), victims, OBJECT_HOOKS),
                          recorded_gate()),
        lambda: cache_for(make_policy(), recorded_gate()),
        lambda: cache_for(make_policy(), make_gate()),
        lambda: cache_for(make_policy(), make_gate(), sanitize=None),
    ]
    calls = {
        "trace_decode": stats.accesses,
        "tag_lookup": stats.accesses,
        "policy_update": stats.admitted + stats.hits + stats.evictions,
        "victim_scoring": len(victims),
        "admission": stats.accesses + len(verdicts),
        "sanitize": stats.accesses,
    }
    return _split("objcache", key, runs, drive, outcome, stats.as_dict(),
                  calls)


def _rates(phases: dict) -> dict:
    """Each key's accesses/sec over its phase record's ``loop_seconds``."""
    return {key: round(record["accesses"] / record["loop_seconds"], 1)
            for key, record in phases.items()}


def bench_objcache(spec: dict = None) -> dict:
    """Accesses/sec of ``ObjectCache.replay`` per policy and admission gate.

    A key is a policy name, or ``lru+<gate>`` for a gate in front of LRU
    (the other keys admit everything); :func:`objcache_phases` splits
    each key's replay into phases.
    """
    from repro.objcache import generate_object_trace, make_object_policy
    from repro.objcache.admission import make_admission

    spec = _merged(OBJCACHE_BENCH, spec)
    trace = generate_object_trace(
        name="bench-zipf", kind="zipf", objects=spec["objects"],
        length=spec["length"], seed=spec["seed"], alpha=spec["alpha"],
        sizes={"dist": "lognormal", "min": 256, "max": 1 << 20,
               "correlate": "inverse"},
    )
    keys = list(spec["policies"])
    keys += [f"lru+{gate}" for gate in spec.get("admissions", ())]
    phases = {}
    for key in keys:
        policy, _, gate = key.partition("+")
        phases[key] = objcache_phases(
            trace.requests, spec["capacity_bytes"],
            partial(make_object_policy, policy),
            partial(make_admission, gate or "always"), key=key,
        ).as_dict()
    return {
        "bench": "objcache",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "accesses/sec",
        "requests": len(trace.requests),
        "capacity_bytes": spec["capacity_bytes"],
        "environment": _environment(),
        "rates": _rates(phases),
        "phases": phases,
    }


def bench_replay(spec: dict = None) -> dict:
    """LLC accesses/sec of the pass-2 replay per CPU policy.

    The stream is prepared once (the warm-prep-cache path, so pass 1 stays
    out of the timing); :func:`replay_phases` splits each policy's replay
    into phases.
    """
    from repro.cache.replacement import make_policy
    from repro.eval.runner import prepare_workload
    from repro.eval.workloads import EvalConfig

    spec = _merged(REPLAY_BENCH, spec)
    config = EvalConfig(scale=spec["scale"],
                        trace_length=spec["trace_length"], seed=spec["seed"])
    prepared = prepare_workload(config, config.trace(spec["workload"]))
    phases = {
        policy: replay_phases(prepared, partial(make_policy, policy)).as_dict()
        for policy in spec["policies"]
    }
    return {
        "bench": "replay",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "llc accesses/sec",
        "workload": spec["workload"],
        "trace_length": spec["trace_length"],
        "llc_records": len(prepared.llc_records),
        "environment": _environment(),
        "rates": _rates(phases),
        "phases": phases,
    }


BENCHES = {
    "replay": (bench_replay, "BENCH_replay.json"),
    "objcache": (bench_objcache, "BENCH_objcache.json"),
}


def write_bench(name: str, output_dir=".", spec: dict = None):
    """Run one named benchmark and write its JSON snapshot; returns
    ``(payload, path)``."""
    from repro.runs.atomic import atomic_write_text

    run, filename = BENCHES[name]
    payload = run(spec=spec)
    path = Path(output_dir) / filename
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload, path


# -- regression gate ------------------------------------------------------------


def resolve_baseline(target):
    """Load a comparison baseline: a directory holding ``BENCH_*.json``
    snapshots, or one snapshot file.  Returns ``({bench: payload},
    notes)``."""
    target = Path(target)
    if target.is_dir():
        baseline, notes = {}, []
        for path in sorted(target.glob("BENCH_*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as error:
                notes.append(f"skipped unparseable {path.name}: {error}")
                continue
            if isinstance(payload, dict) and payload.get("bench"):
                baseline[payload["bench"]] = payload
        return baseline, notes
    if not target.is_file():
        raise FileNotFoundError(f"no baseline at {target}")
    payload = json.loads(target.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or not payload.get("bench"):
        raise ValueError(f"{target} is not a bench payload")
    return {payload["bench"]: payload}, []


@dataclass
class CompareRow:
    """One gated rate key."""

    bench: str
    key: str
    current: float
    baseline: float = None  #: None when the key is new
    delta_pct: float = None
    threshold_pct: float = None
    status: str = "ok"  #: ok | improved | new | regression


@dataclass
class PhaseDelta:
    """Per-access phase growth between baseline and current."""

    bench: str
    key: str
    phase: str
    baseline_ns: float
    current_ns: float
    delta_pct: float


@dataclass
class CompareReport:
    rows: list = field(default_factory=list)
    phase_deltas: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def regressions(self) -> list:
        return [row for row in self.rows if row.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def worst_phase(self, bench: str, key: str):
        """The fastest-growing phase for one (bench, key), or ``None``."""
        candidates = [
            delta for delta in self.phase_deltas
            if delta.bench == bench and delta.key == key
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda delta: delta.delta_pct)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rows": [vars(row) for row in self.rows],
            "phase_deltas": [vars(delta) for delta in self.phase_deltas],
            "notes": list(self.notes),
        }

    def format(self) -> str:
        lines = []
        widths = (10, 22, 14, 14, 8, 6, 10)
        header = ("bench", "key", "baseline", "current", "delta%", "thr%",
                  "status")
        lines.append("  ".join(
            str(col).ljust(width) for col, width in zip(header, widths)
        ).rstrip())
        for row in self.rows:
            cells = (
                row.bench,
                row.key,
                "-" if row.baseline is None else f"{row.baseline:.1f}",
                f"{row.current:.1f}",
                "-" if row.delta_pct is None else f"{row.delta_pct:+.1f}",
                "-" if row.threshold_pct is None
                else f"{row.threshold_pct:.0f}",
                row.status,
            )
            lines.append("  ".join(
                str(col).ljust(width) for col, width in zip(cells, widths)
            ).rstrip())
        for row in self.regressions:
            blame = self.worst_phase(row.bench, row.key)
            detail = (
                f"  REGRESSION {row.bench}/{row.key}: "
                f"{-row.delta_pct:.1f}% below baseline "
                f"(threshold {row.threshold_pct:.0f}%)"
            )
            if blame is not None and blame.delta_pct > 0:
                detail += (
                    f"; slowest-growing phase: {blame.phase} "
                    f"({blame.delta_pct:+.1f}%, {blame.baseline_ns:.1f} -> "
                    f"{blame.current_ns:.1f} ns/access)"
                )
            lines.append(detail)
        regressed = {(row.bench, row.key) for row in self.regressions}
        shown = [
            delta for delta in self.phase_deltas
            if (delta.bench, delta.key) in regressed
        ]
        if shown:
            lines.append("")
            lines.append("per-phase deltas (ns/access) for regressed benches:")
            phase_widths = (10, 22, 20, 12, 12, 8)
            phase_header = ("bench", "key", "phase", "baseline", "current",
                            "delta%")
            lines.append("  ".join(
                str(col).ljust(width)
                for col, width in zip(phase_header, phase_widths)
            ).rstrip())
            for delta in shown:
                cells = (
                    delta.bench, delta.key, delta.phase,
                    f"{delta.baseline_ns:.1f}", f"{delta.current_ns:.1f}",
                    f"{delta.delta_pct:+.1f}",
                )
                lines.append("  ".join(
                    str(col).ljust(width)
                    for col, width in zip(cells, phase_widths)
                ).rstrip())
        for note in self.notes:
            lines.append(f"  note: {note}")
        verdict = "PASS" if self.ok else (
            f"FAIL: {len(self.regressions)} regression(s)"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _phase_deltas(bench: str, key: str, baseline_phases: dict,
                  current_phases: dict) -> list:
    deltas = []
    base = (baseline_phases or {}).get(key, {}).get("phases", {})
    curr = (current_phases or {}).get(key, {}).get("phases", {})
    for phase in sorted(set(base) & set(curr)):
        baseline_ns = float(base[phase].get("per_access_ns", 0.0))
        current_ns = float(curr[phase].get("per_access_ns", 0.0))
        if baseline_ns <= 0.0 and current_ns <= 0.0:
            continue
        delta_pct = (
            (current_ns - baseline_ns) / baseline_ns * 100.0
            if baseline_ns > 0 else float("inf")
        )
        deltas.append(PhaseDelta(bench, key, phase, baseline_ns, current_ns,
                                 delta_pct))
    return deltas


def compare(current: dict, baseline: dict,
            tolerance: float = None) -> CompareReport:
    """Gate ``current`` bench payloads against ``baseline`` ones.

    ``current`` and ``baseline`` map bench name -> payload.  A rate below
    ``(1 - threshold) x baseline`` is a regression, where ``threshold`` is
    ``tolerance`` (a fraction, e.g. ``0.5`` = 50%; the CI knob for
    generous noise bounds) or :data:`THRESHOLD`.  A key missing from the
    baseline is ``new``, never a failure, so adding a key cannot break
    the gate that protects it.  Per-access phase growth is compared only
    between payloads of one schema, and a key whose ``digest`` changed
    gets a note that its rate now times a different simulation.
    """
    threshold = THRESHOLD if tolerance is None else tolerance
    report = CompareReport()
    for bench in sorted(current):
        payload = current[bench]
        base_payload = baseline.get(bench) or {}
        base_rates = base_payload.get("rates", {})
        for key in sorted(payload.get("rates", {})):
            rate = float(payload["rates"][key])
            if key not in base_rates:
                report.rows.append(CompareRow(bench, key, rate, status="new"))
                continue
            base_rate = float(base_rates[key])
            delta_pct = (
                (rate - base_rate) / base_rate * 100.0 if base_rate > 0
                else 0.0
            )
            if base_rate > 0 and rate < base_rate * (1.0 - threshold):
                status = "regression"
            elif base_rate > 0 and rate > base_rate * (1.0 + threshold):
                status = "improved"
            else:
                status = "ok"
            report.rows.append(CompareRow(
                bench, key, rate, baseline=base_rate, delta_pct=delta_pct,
                threshold_pct=threshold * 100.0, status=status,
            ))
            if base_payload.get("schema") == payload.get("schema"):
                report.phase_deltas.extend(_phase_deltas(
                    bench, key, base_payload.get("phases"),
                    payload.get("phases"),
                ))
            old, new = (
                ((side.get("phases") or {}).get(key) or {}).get("digest")
                for side in (base_payload, payload)
            )
            if old and new and old != new:
                report.notes.append(
                    f"{bench}/{key} simulated a different result "
                    f"(digest {old[:12]} -> {new[:12]}): its rate is not "
                    f"timing the same work as the baseline's"
                )
    for bench in sorted(set(baseline) - set(current)):
        report.notes.append(
            f"baseline bench {bench!r} was not run this time (not gated)"
        )
    return report
