"""Phase attribution by differencing unprofiled runs.

``repro bench`` splits a replay into phases by timing a chain of plain
runs, each adding one piece to the run before.  The runs before the real
policy replay recorded victims (and admission verdicts) through
:class:`~repro.eval.bench.Scripted` stand-ins, so the method rests on one
premise, tested here for every registered policy: a scripted run simulates
exactly what the real replay did.  The :class:`PhaseProfile` reduction is
tested on synthetic rounds; the drivers on small real streams.
"""

import dataclasses
from functools import partial
from statistics import quantiles

import pytest

from repro.cache.replacement import POLICY_REGISTRY, make_policy
from repro.cache.replacement.belady import BeladyPolicy
from repro.eval.bench import (
    CPU_HOOKS,
    OBJECT_HOOKS,
    PHASE_ROUNDS,
    Scripted,
    objcache_phases,
    replay_phases,
)
from repro.eval.runner import prepare_workload, replay
from repro.eval.workloads import EvalConfig
from repro.objcache import (
    ObjectCache,
    generate_object_trace,
    make_object_policy,
)
from repro.objcache.admission import make_admission
from repro.objcache.policies import object_policy_names
from repro.telemetry.perf import ENGINES, PHASES, PhaseProfile
from repro.telemetry.registry import deterministic_digest

CAPACITY = 500_000


@pytest.fixture(scope="module")
def prepared():
    config = EvalConfig(scale=64, trace_length=1200, seed=7)
    return prepare_workload(config, config.trace("429.mcf"))


@pytest.fixture(scope="module")
def object_trace():
    return generate_object_trace(
        name="perf-test", kind="zipf", objects=300, length=1500, seed=7,
        alpha=1.0,
        sizes={"dist": "lognormal", "min": 256, "max": 1 << 16,
               "correlate": "inverse"},
    )


def cpu_factory(prepared, name):
    if name == "belady":
        return partial(BeladyPolicy, prepared.llc_line_stream)
    return partial(make_policy, name)


def record_victims(prepared, make):
    """The victims and result of one sanitizer-off replay."""
    victims = []
    result = replay(
        prepared, make(), sanitize="off",
        observers=[lambda cache_set, way, line, access: victims.append(way)],
    )
    return victims, result


def rounds_from(phase_rounds):
    """Cumulative run times from per-round phase seconds."""
    rounds = []
    for phases in phase_rounds:
        total, runs = 0.0, []
        for seconds in phases:
            total += seconds
            runs.append(total)
        rounds.append(runs)
    return rounds


class TestPhaseProfile:
    @pytest.mark.parametrize("engine", ["gpu", "train", "serve"])
    def test_rejects_unknown_engine(self, engine):
        """Only engines with a chain of runs are accepted: a profile that
        derived no phases would fail reconciliation later instead."""
        with pytest.raises(ValueError, match="unknown profile engine"):
            PhaseProfile(engine)

    def test_subtractive_derivation_reconciles_exactly(self):
        """Each phase is its run minus the run before, negatives included
        (noise is reported, not clamped), and the phases sum to the last
        run."""
        profile = PhaseProfile("replay", accesses=10)
        profile.reduce([[0.5, 1.5, 1.7, 2.1, 2.05]])
        assert profile.phases == pytest.approx({
            "trace_decode": 0.5, "tag_lookup": 1.0, "policy_update": 0.2,
            "victim_scoring": 0.4, "sanitize": -0.05,
        })
        assert profile.loop_seconds == 2.05
        assert sum(profile.phases.values()) == pytest.approx(2.05)
        assert profile.reconciliation()["relative_error"] <= 1e-9

    def test_phases_sum_to_loop_seconds_over_many_rounds(self):
        phase_rounds = [
            [0.1 * (index + 1), 0.3, -0.02 * index, 0.05, 0.01 * index]
            for index in range(PHASE_ROUNDS)
        ]
        profile = PhaseProfile("replay", accesses=100)
        profile.reduce(rounds_from(phase_rounds))
        assert sum(profile.phases.values()) == pytest.approx(
            profile.loop_seconds, rel=1e-12
        )
        assert profile.reconciliation()["relative_error"] <= 1e-9

    def test_slow_rounds_are_dropped(self):
        fast = [0.1, 0.2, 0.1, 0.1, 0.0]
        slow = [5.0, 0.2, 0.1, 0.1, 0.0]
        profile = PhaseProfile("replay", accesses=1)
        profile.reduce(rounds_from([slow, fast, slow, fast]))
        assert profile.loop_seconds == pytest.approx(sum(fast))
        assert profile.phases["trace_decode"] == pytest.approx(0.1)

    def test_spread_is_the_interquartile_range(self):
        decodes = [0.1, 0.4, 0.2, 0.9, 0.3, 0.5, 0.7, 0.6]
        profile = PhaseProfile("replay", accesses=1000)
        profile.reduce(rounds_from(
            [[decode, 0.2, 0.1, 0.1, 0.0] for decode in decodes]
        ))
        first, _, third = quantiles(decodes, n=4, method="inclusive")
        assert profile.spread["trace_decode"] == pytest.approx(third - first)
        assert profile.spread["tag_lookup"] == pytest.approx(0.0)
        report = profile.as_dict()["phases"]["trace_decode"]
        assert report["spread_ns"] == pytest.approx(
            (third - first) * 1e9 / 1000, abs=0.1
        )

    def test_rounds_must_time_the_whole_chain(self):
        profile = PhaseProfile("objcache")
        with pytest.raises(ValueError, match="times 6 runs, got 5"):
            profile.reduce([[0.1, 0.2, 0.3, 0.4, 0.5]])

    def test_phase_names_stay_inside_the_taxonomy(self):
        for engine, chain in ENGINES.items():
            profile = PhaseProfile(engine)
            profile.reduce([[float(index) for index in range(len(chain))]])
            assert list(profile.phases) == list(chain)
            assert set(profile.phases) <= set(PHASES)

    def test_timing_fields_are_excluded_from_the_digest(self):
        calls = {"victim_scoring": 5, "trace_decode": 50}
        fast = PhaseProfile("replay", 50, calls, digest="d" * 64)
        slow = PhaseProfile("replay", 50, calls, digest="d" * 64)
        fast.reduce([[0.01, 0.02, 0.03, 0.04, 0.05]])
        slow.reduce([[9.0, 12.0, 12.5, 13.0, 20.0],
                     [9.5, 12.0, 12.5, 13.0, 21.0]])
        assert fast.structure() == slow.structure()
        assert fast.structure_digest() == slow.structure_digest()
        # ... while the timed report obviously differs.
        assert fast.as_dict() != slow.as_dict()
        other = PhaseProfile("replay", 50, calls, digest="e" * 64)
        other.reduce([[0.01, 0.02, 0.03, 0.04, 0.05]])
        assert other.structure_digest() != fast.structure_digest()


class TestScriptedPremise:
    @pytest.mark.parametrize("name", sorted(POLICY_REGISTRY))
    def test_scripted_runs_reproduce_the_replay(self, prepared, name):
        make = cpu_factory(prepared, name)
        victims, expected = record_victims(prepared, make)
        assert replay(prepared, Scripted(make(), victims),
                      sanitize="off") == expected
        assert replay(prepared, Scripted(make(), victims, CPU_HOOKS),
                      sanitize="off") == expected

    @pytest.mark.parametrize("gate", [None, "freq_gate"])
    @pytest.mark.parametrize("name", object_policy_names())
    def test_scripted_object_runs_reproduce_the_stats(self, object_trace,
                                                      name, gate):
        make = partial(make_object_policy, name)
        make_gate = partial(make_admission, gate or "always")
        victims, verdicts = [], []
        recorded_gate = make_gate()
        real_admit = recorded_gate.admit

        def admit(request, now):
            verdicts.append(real_admit(request, now))
            return verdicts[-1]

        recorded_gate.admit = admit
        cache = ObjectCache(CAPACITY, make(), admission=recorded_gate,
                            sanitize="off")
        cache.add_decision_observer(
            lambda victim, incoming, now: victims.append(victim.key)
        )
        expected = cache.replay(object_trace.requests).as_dict()
        assert victims  # the capacity forces evictions
        for hooks in ((), OBJECT_HOOKS):
            scripted = ObjectCache(
                CAPACITY, Scripted(make(), victims, hooks),
                admission=Scripted(make_gate(), verdicts), sanitize="off",
            )
            stats = scripted.replay(object_trace.requests)
            assert stats.as_dict() == expected


class TestReplayParity:
    def test_profiled_replay_is_bit_identical(self, prepared):
        """The split's runs reproduce a plain replay: its digest is the
        plain replay's."""
        for name in ("lru", "rlr"):
            profile = replay_phases(prepared, cpu_factory(prepared, name))
            plain = replay(prepared, name)
            assert profile.digest == deterministic_digest(
                dataclasses.asdict(plain)
            )
            assert profile.accesses == len(prepared.llc_records)

    def test_phase_sum_reconciles_within_one_percent(self, prepared):
        profile = replay_phases(prepared, cpu_factory(prepared, "rlr"))
        reconciliation = profile.reconciliation()
        assert reconciliation["relative_error"] <= 1e-9
        assert reconciliation["loop_seconds"] > 0

    def test_report_covers_the_replay_phases(self, prepared):
        profile = replay_phases(prepared, cpu_factory(prepared, "lru"))
        report = profile.as_dict()
        assert set(report["phases"]) == set(ENGINES["replay"])
        for phase in report["phases"].values():
            assert set(phase) == {"seconds", "calls", "per_access_ns",
                                  "spread_ns"}
        victims, result = record_victims(prepared,
                                         cpu_factory(prepared, "lru"))
        calls = {name: phase["calls"]
                 for name, phase in report["phases"].items()}
        accesses = len(prepared.llc_records)
        assert calls["victim_scoring"] == len(victims) > 0
        assert calls["trace_decode"] == calls["tag_lookup"] == accesses
        # One on_hit or on_miss per access, one on_fill per miss, one
        # on_evict per victim.
        misses = calls["policy_update"] - accesses - len(victims)
        assert misses >= result.llc_stats["misses"] > 0

    def test_wrong_victims_raise(self, prepared, monkeypatch):
        """A script that does not reproduce the recorded replay stops the
        bench instead of timing a different simulation."""
        import repro.eval.bench as bench_mod

        def reversed_script(policy, answers, hooks=()):
            return Scripted(policy, list(answers)[::-1], hooks)

        monkeypatch.setattr(bench_mod, "Scripted", reversed_script)
        with pytest.raises(RuntimeError, match="did not reproduce"):
            replay_phases(prepared, cpu_factory(prepared, "lru"))


class TestObjectCacheParity:
    def test_profiled_objcache_is_bit_identical(self, object_trace):
        for name in ("lru", "rlr"):
            profile = objcache_phases(
                object_trace.requests, CAPACITY,
                partial(make_object_policy, name),
                partial(make_admission, "always"),
            )
            plain = ObjectCache(CAPACITY, make_object_policy(name))
            expected = plain.replay(object_trace.requests).as_dict()
            assert profile.digest == deterministic_digest(expected)
            assert profile.reconciliation()["relative_error"] <= 1e-9

    def test_admission_gate_time_lands_in_the_admission_phase(
        self, object_trace
    ):
        profile = objcache_phases(
            object_trace.requests, CAPACITY,
            partial(make_object_policy, "lru"),
            partial(make_admission, "freq_gate"),
        )
        report = profile.as_dict()
        assert set(report["phases"]) == set(ENGINES["objcache"])
        # record() per request plus admit() per admissible miss.
        assert profile.calls["admission"] > len(object_trace.requests)

    def test_rlr_calls_land_in_their_phases(self, object_trace):
        """Each eviction is one ``victim_scoring`` call, each admission,
        hit and eviction one ``policy_update`` call."""
        profile = objcache_phases(
            object_trace.requests, CAPACITY,
            partial(make_object_policy, "rlr"),
            partial(make_admission, "always"),
        )
        cache = ObjectCache(CAPACITY, make_object_policy("rlr"))
        decisions = []
        cache.add_decision_observer(lambda *args: decisions.append(args))
        stats = cache.replay(object_trace.requests)
        assert decisions  # the capacity forces evictions
        assert profile.calls["victim_scoring"] == len(decisions)
        assert profile.calls["policy_update"] == (
            stats.admitted + stats.hits + stats.evictions
        )

    def test_wrong_verdicts_raise(self, object_trace, monkeypatch):
        import repro.eval.bench as bench_mod

        def refusing_script(policy, answers, hooks=()):
            if hasattr(policy, "admit"):
                answers = [False] * len(answers)
            return Scripted(policy, answers, hooks)

        monkeypatch.setattr(bench_mod, "Scripted", refusing_script)
        with pytest.raises(RuntimeError, match="did not reproduce"):
            objcache_phases(
                object_trace.requests, CAPACITY,
                partial(make_object_policy, "lru"),
                partial(make_admission, "freq_gate"), key="lru+freq_gate",
            )


class TestStructureDeterminism:
    def test_structure_is_identical_across_repeats(self, prepared):
        make = cpu_factory(prepared, "srrip")
        first = replay_phases(prepared, make)
        second = replay_phases(prepared, make)
        assert first.structure() == second.structure()
        assert first.structure_digest() == second.structure_digest()

    def test_digest_is_stable_across_extra_rounds(self):
        profile = PhaseProfile("objcache", 7, {"victim_scoring": 3})
        profile.reduce([[0.1, 0.2, 0.3, 0.4, 0.45, 0.5]])
        digest = profile.structure_digest()
        profile.reduce([[0.1, 0.2, 0.3, 0.4, 0.45, 0.5],
                        [1.1, 1.2, 1.3, 2.4, 2.45, 2.5]])
        assert profile.structure_digest() == digest

