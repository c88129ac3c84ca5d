"""Throughput micro-benchmarks (``repro bench``): the perf observatory.

A matrix of fixed, small, deterministic workloads, one family per engine:

* **replay**: a CPU workload prepared once (warm prep-cache path, so pass 1
  is excluded) and its recorded LLC stream replayed per policy;
* **objcache**: the golden object-cache scenario shape (Zipfian trace,
  lognormal inverse-correlated sizes) per object policy, plus the
  admission-gated variant ``lru+freq_gate``;
* **train**: one Q-learning epoch over a recorded LLC stream (records/sec);
* **overhead**: the disabled-path budget guards (telemetry hooks, decision
  observer loops, telemetry identity) as asserted checks.

Every payload is schema-versioned (:data:`BENCH_SCHEMA_VERSION`) and stamps
the environment (python, machine, git SHA + dirty flag).  The replay and
objcache payloads also split each key's replay into phases, so a
regression report can name the phase that got slower, not just the number
that moved.  The split times the one engine, unprofiled:
:func:`replay_phases` and :func:`objcache_phases` record one
sanitizer-off replay (its victims, admission verdicts and per-access
answers), then time a chain of runs that each add one piece to the run
before (:mod:`repro.telemetry.perf` names them).  The runs before the real
policy get :class:`Scripted` stand-ins that replay the recorded answers.
Every run after the loop must reproduce the recorded result exactly, or
the bench raises; the digest of that result goes into the payload.

Results are committed as ``BENCH_*.json`` at the repo root (one snapshot
per PR) and appended to ``BENCH_history.jsonl``
(:mod:`repro.eval.bench_history`) for the regression gate.  Numbers are
machine-dependent by nature — the history tracks *relative* movement on
the CI machine class, not absolute truth.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from repro.telemetry.perf import ENGINES, PhaseProfile
from repro.telemetry.registry import deterministic_digest

#: Bumped whenever a payload's shape changes (satellite: snapshots must be
#: correlatable with history — see docs/observability.md).
#: v2: added schema/git stamps, phases and more bench families.
#: v3: phases are differences of unprofiled runs, with ``spread_ns``, and
#: carry the ``digest`` of the result the runs reproduced.
BENCH_SCHEMA_VERSION = 3

DEFAULT_REPEATS = 3

#: Timed rounds of the phase split per bench key; the run order rotates
#: from round to round.
PHASE_ROUNDS = 8

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

#: One training epoch over a small recorded LLC stream.
TRAIN_BENCH = {
    "workload": "429.mcf",
    "scale": 64,
    "trace_length": 3000,
    "seed": 7,
    "hidden_size": 32,
    "epochs": 1,
}

#: The overhead-budget suite (folds the ad-hoc <2% guards into the bench
#: history so they regress visibly, not silently).
OVERHEAD_BENCH = {
    "workload": "429.mcf",
    "scale": 64,
    "trace_length": 1500,
    "seed": 7,
    "budget": 0.02,
}


def _merged(default: dict, spec) -> dict:
    return dict(default) if spec is None else {**default, **spec}


def _best_rate(run, units: int, repeats: int) -> float:
    """Best-of-N throughput in units/sec (min timing noise, not mean)."""
    best = 0.0
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, units / elapsed)
    return best


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


def _objcache_runs(spec: dict = None):
    """The objcache bench trace and one plain replay of it per bench key:
    a policy name, or ``lru+<gate>`` for a gate in front of LRU."""
    from repro.objcache import (
        ObjectCache,
        generate_object_trace,
        make_object_policy,
    )
    from repro.objcache.admission import make_admission

    spec = _merged(OBJCACHE_BENCH, spec)
    trace = generate_object_trace(
        name="bench-zipf", kind="zipf", objects=spec["objects"],
        length=spec["length"], seed=spec["seed"], alpha=spec["alpha"],
        sizes={"dist": "lognormal", "min": 256, "max": 1 << 20,
               "correlate": "inverse"},
    )

    def run(key):
        policy, _, gate = key.partition("+")
        cache = ObjectCache(
            spec["capacity_bytes"], make_object_policy(policy),
            admission=make_admission(gate) if gate else None,
        )
        cache.replay(trace.requests)

    keys = list(spec["policies"])
    keys += [f"lru+{gate}" for gate in spec.get("admissions", ())]
    return trace, {key: partial(run, key) for key in keys}


def _replay_runs(spec: dict = None):
    """The replay bench stream, prepared once (the warm-prep-cache path,
    so pass 1 stays out of the runs), and one plain replay per policy."""
    from repro.eval.runner import prepare_workload, replay
    from repro.eval.workloads import EvalConfig

    spec = _merged(REPLAY_BENCH, spec)
    config = EvalConfig(scale=spec["scale"],
                        trace_length=spec["trace_length"], seed=spec["seed"])
    prepared = prepare_workload(config, config.trace(spec["workload"]))
    return prepared, {policy: partial(replay, prepared, policy)
                      for policy in spec["policies"]}


def bench_objcache(repeats: int = DEFAULT_REPEATS, spec: dict = None) -> dict:
    """Accesses/sec of ``ObjectCache.replay`` per policy and admission gate.

    Rates are best-of-N over plain replays; :func:`objcache_phases` splits
    each variant's replay into phases.
    """
    from repro.objcache import make_object_policy
    from repro.objcache.admission import make_admission

    spec = _merged(OBJCACHE_BENCH, spec)
    trace, runs = _objcache_runs(spec)
    rates, phases = {}, {}
    for key, run in runs.items():
        policy, _, gate = key.partition("+")
        rates[key] = round(_best_rate(run, len(trace.requests), repeats), 1)
        phases[key] = objcache_phases(
            trace.requests, spec["capacity_bytes"],
            partial(make_object_policy, policy),
            partial(make_admission, gate or "always"), key=key,
        ).as_dict()
    return {
        "bench": "objcache",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "accesses/sec",
        "repeats": repeats,
        "requests": len(trace.requests),
        "capacity_bytes": spec["capacity_bytes"],
        "environment": _environment(),
        "rates": rates,
        "phases": phases,
    }


def bench_replay(repeats: int = DEFAULT_REPEATS, spec: dict = None) -> dict:
    """LLC accesses/sec of the pass-2 replay per CPU policy.

    Rates are best-of-N over the plain replays of :func:`_replay_runs`;
    :func:`replay_phases` splits each policy's replay into phases.
    """
    from repro.cache.replacement import make_policy

    spec = _merged(REPLAY_BENCH, spec)
    prepared, runs = _replay_runs(spec)
    rates, phases = {}, {}
    for policy, run in runs.items():
        rates[policy] = round(
            _best_rate(run, len(prepared.llc_records), repeats), 1
        )
        phases[policy] = replay_phases(
            prepared, partial(make_policy, policy)
        ).as_dict()
    return {
        "bench": "replay",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "llc accesses/sec",
        "repeats": repeats,
        "workload": spec["workload"],
        "trace_length": spec["trace_length"],
        "llc_records": len(prepared.llc_records),
        "environment": _environment(),
        "rates": rates,
        "phases": phases,
    }


def bench_train(repeats: int = DEFAULT_REPEATS, spec: dict = None) -> dict:
    """Records/sec of one Q-learning epoch over a recorded LLC stream."""
    from repro.eval.workloads import EvalConfig
    from repro.rl.trainer import (
        TrainerConfig,
        llc_stream_records,
        train_on_stream,
    )

    spec = _merged(TRAIN_BENCH, spec)
    config = EvalConfig(scale=spec["scale"],
                        trace_length=spec["trace_length"], seed=spec["seed"])
    records = llc_stream_records(config, spec["workload"])
    llc_config = config.hierarchy().llc
    trainer_config = TrainerConfig(hidden_size=spec["hidden_size"],
                                   epochs=spec["epochs"])

    def run():
        train_on_stream(llc_config, records, trainer_config)

    rate = _best_rate(run, len(records) * spec["epochs"], repeats)
    return {
        "bench": "train",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "records/sec",
        "repeats": repeats,
        "workload": spec["workload"],
        "llc_records": len(records),
        "hidden_size": spec["hidden_size"],
        "environment": _environment(),
        "rates": {"qlearner": round(rate, 1)},
        "phases": {},
    }


def bench_overhead(repeats: int = DEFAULT_REPEATS, spec: dict = None) -> dict:
    """The disabled-path budget guards as history-tracked checks.

    Each check carries ``value``/``budget``/``ok``; the regression gate
    fails on any ``ok: false`` regardless of baseline (these are absolute
    budgets, not relative movements).  Mirrors the structural guards in
    tests/test_telemetry_overhead.py so the same invariants appear in
    every bench report.
    """
    import timeit

    from repro import telemetry
    from repro.cache.cache import Cache
    from repro.cache.replacement import make_policy
    from repro.eval.runner import prepare_workload, replay
    from repro.eval.workloads import EvalConfig
    from repro.telemetry.registry import NULL_REGISTRY
    from repro.telemetry.spans import NULL_SPAN

    spec = _merged(OVERHEAD_BENCH, spec)
    budget = spec["budget"]
    config = EvalConfig(scale=spec["scale"],
                        trace_length=spec["trace_length"], seed=spec["seed"])
    prepared = prepare_workload(config, config.trace(spec["workload"]))

    # Mean-of-N denominator (same as the tier-1 guard): the budget bounds
    # typical replay cost, and a min-of-N denominator would tighten the
    # ratio artificially under CI load.
    started = time.perf_counter()
    result = None
    for _ in range(max(1, repeats)):
        result = replay(prepared, "lru")
    replay_seconds = (time.perf_counter() - started) / max(1, repeats)

    checks = {}

    # Telemetry hooks with telemetry disabled: one span() call per *loop*,
    # bounded against the smallest replay the sweep engine ever schedules.
    calls = 2000
    hook_seconds = timeit.timeit(
        lambda: telemetry.span("replay", workload="w"), number=calls,
    ) / calls
    ratio = hook_seconds / replay_seconds
    checks["telemetry_hooks_disabled"] = {
        "value": round(ratio, 6), "budget": budget, "ok": ratio < budget,
        "unit": "fraction of smallest replay",
    }

    # Decision log disabled: the only residue is one empty-list loop per
    # eviction; time that statement on an untraced cache's own list.
    evictions = result.llc_stats["evictions"]
    cache = Cache(prepared.llc_config, make_policy("lru"))
    loop_seconds = timeit.timeit(
        "for callback in cache.decision_observers: pass",
        globals={"cache": cache}, number=max(int(evictions), 1),
    )
    ratio = loop_seconds / replay_seconds
    checks["decision_observer_loop"] = {
        "value": round(ratio, 6), "budget": budget, "ok": ratio < budget,
        "unit": "fraction of smallest replay",
    }

    # span()/registry identity: the disabled path binds the shared null
    # objects, so telemetry-free code pays no allocation.
    identity = (
        not telemetry.is_enabled()
        and telemetry.span("replay") is NULL_SPAN
        and telemetry.get_registry() is NULL_REGISTRY
    )
    checks["telemetry_disabled_identity"] = {
        "value": 1.0 if identity else 0.0, "budget": None, "ok": identity,
        "unit": "identity",
    }

    return {
        "bench": "overhead",
        "schema": BENCH_SCHEMA_VERSION,
        "unit": "budget checks",
        "repeats": repeats,
        "workload": spec["workload"],
        "budget": budget,
        "environment": _environment(),
        "rates": {},
        "checks": checks,
    }


BENCHES = {
    "replay": (bench_replay, "BENCH_replay.json"),
    "objcache": (bench_objcache, "BENCH_objcache.json"),
    "train": (bench_train, "BENCH_train.json"),
    "overhead": (bench_overhead, "BENCH_overhead.json"),
}


def write_bench(name: str, output_dir=".", repeats: int = DEFAULT_REPEATS,
                spec: dict = None):
    """Run one named benchmark and write its JSON snapshot; returns
    ``(payload, path)``."""
    from repro.runs.atomic import atomic_write_text

    run, filename = BENCHES[name]
    payload = run(repeats=repeats, spec=spec)
    path = Path(output_dir) / filename
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return payload, path


def capture_flamegraph(name: str, spec: dict = None) -> str:
    """One cProfile'd bench run folded into flamegraph lines.

    Opt-in (``repro bench --profile``).  ``replay`` and ``objcache`` profile
    their setup and one plain run per key (the runs whose best-of-N gives
    the rates), not the phase split; the other benches run once.  Returns
    collapsed-stack text any folded-format flamegraph renderer can draw.
    """
    from repro.telemetry.perf import capture_collapsed

    plain_runs = {"replay": _replay_runs, "objcache": _objcache_runs}.get(name)
    if plain_runs is None:
        target = partial(BENCHES[name][0], repeats=1, spec=spec)
    else:
        def target():
            for run in plain_runs(spec)[1].values():
                run()
    return capture_collapsed(target)[1]
