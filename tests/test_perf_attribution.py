"""Phase-attribution profiler: parity, reconciliation, determinism.

The contract under test (ISSUE 10 tentpole): profiling changes *when*
things are measured, never *what* is computed — so profiled runs are
bit-identical to unprofiled ones, phase sums reconcile with the loop wall
time, and the phase *structure* (names, call counts) is a deterministic
function of the simulation: byte-identical across repeats and across
worker-process counts, with every timing field excluded from the digest.
"""

import json

import pytest

from repro.eval.runner import prepare_workload, replay
from repro.eval.workloads import EvalConfig
from repro.objcache import (
    ObjectCache,
    generate_object_trace,
    make_object_policy,
)
from repro.objcache.admission import make_admission
from repro.telemetry.perf import (
    ENGINES,
    PHASES,
    PhaseProfile,
    capture_collapsed,
    make_profiled_cache,
    make_profiled_object_cache,
    profile_structures,
)


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


class TestPhaseProfile:
    @pytest.mark.parametrize("engine", ["gpu", "train", "serve"])
    def test_rejects_unknown_engine(self, engine):
        """Only engines ``finish()`` can attribute are accepted: a profile
        that derived no phases would fail reconciliation later instead."""
        with pytest.raises(ValueError, match="unknown profile engine"):
            PhaseProfile(engine)

    def test_subtractive_derivation_reconciles_exactly(self):
        profile = PhaseProfile("replay")
        profile.accesses = 10
        profile.raw.update(access=1.0, victim=0.4, hooks=0.2,
                           observers=0.05, admission=0.0)
        profile.finish(1.5)
        phases = profile.phases
        assert phases["trace_decode"] == pytest.approx(0.5)
        assert phases["tag_lookup"] == pytest.approx(0.35)
        assert phases["victim_scoring"] == pytest.approx(0.4)
        assert phases["policy_update"] == pytest.approx(0.2)
        assert phases["telemetry"] == pytest.approx(0.05)
        assert "admission" not in phases  # replay engine has no gate
        assert sum(phases.values()) == pytest.approx(1.5)
        assert profile.reconciliation()["relative_error"] == 0.0

    def test_negative_residues_clamp_to_zero(self):
        profile = PhaseProfile("replay")
        profile.accesses = 1
        # A victim timer slightly larger than access (float rounding).
        profile.raw.update(access=0.1, victim=0.1000001)
        profile.finish(0.1)
        assert profile.phases["tag_lookup"] == 0.0
        assert profile.phases["trace_decode"] == 0.0

    def test_phase_names_stay_inside_the_taxonomy(self):
        for engine in ENGINES:
            profile = PhaseProfile(engine)
            profile.finish(0.0)
            assert set(profile.phases) <= set(PHASES)

    def test_timing_fields_are_excluded_from_the_digest(self):
        fast, slow = PhaseProfile("replay"), PhaseProfile("replay")
        for profile in (fast, slow):
            profile.accesses = 50
            profile.count("victim_scoring", 5)
        fast.raw.update(access=0.01, victim=0.001)
        slow.raw.update(access=9.0, victim=4.5)
        fast.finish(0.02)
        slow.finish(20.0)
        assert fast.structure() == slow.structure()
        assert fast.structure_digest() == slow.structure_digest()
        # ... while the timed report obviously differs.
        assert fast.as_dict() != slow.as_dict()


class TestReplayParity:
    def test_profiled_replay_is_bit_identical(self, prepared):
        for policy in ("lru", "rlr"):
            baseline = replay(prepared, policy)
            profile = PhaseProfile("replay")
            profiled = replay(prepared, policy, profile=profile)
            assert profiled == baseline
            assert profile.accesses == len(prepared.llc_records)

    def test_phase_sum_reconciles_within_one_percent(self, prepared):
        profile = PhaseProfile("replay")
        replay(prepared, "rlr", profile=profile)
        reconciliation = profile.reconciliation()
        assert reconciliation["relative_error"] <= 0.01
        assert reconciliation["loop_seconds"] > 0

    def test_report_covers_the_replay_phases(self, prepared):
        profile = PhaseProfile("replay")
        replay(prepared, "lru", profile=profile)
        report = profile.as_dict()
        assert set(report["phases"]) == {
            "trace_decode", "tag_lookup", "victim_scoring",
            "policy_update", "telemetry",
        }
        victims = report["phases"]["victim_scoring"]["calls"]
        assert victims > 0  # evictions happened, each one scored
        assert report["phases"]["policy_update"]["calls"] > victims

    def test_observers_are_attributed_to_the_telemetry_phase(self, prepared):
        from repro.cache.replacement import make_policy

        profile = PhaseProfile("replay")
        seen = []
        cache = make_profiled_cache(
            prepared.llc_config, make_policy("lru"), profile
        )
        cache.add_decision_observer(lambda *args: seen.append(args))
        for record in prepared.llc_records:
            cache.access(record)
        profile.finish(1.0)
        assert seen  # observer really ran
        assert profile.calls["telemetry"] == len(seen)
        assert profile.phases["telemetry"] > 0.0


class TestObjectCacheParity:
    def test_profiled_objcache_is_bit_identical(self, object_trace):
        for policy in ("lru", "rlr"):
            baseline = ObjectCache(500_000, make_object_policy(policy))
            expected = baseline.replay(object_trace.requests).as_dict()
            profile = PhaseProfile("objcache")
            cache = make_profiled_object_cache(
                500_000, make_object_policy(policy), profile
            )
            stats = cache.replay(object_trace.requests).as_dict()
            assert stats == expected
            assert profile.reconciliation()["relative_error"] <= 0.01

    def test_admission_gate_time_lands_in_the_admission_phase(
        self, object_trace
    ):
        baseline = ObjectCache(
            500_000, make_object_policy("lru"),
            admission=make_admission("freq_gate"),
        )
        expected = baseline.replay(object_trace.requests).as_dict()
        profile = PhaseProfile("objcache")
        cache = make_profiled_object_cache(
            500_000, make_object_policy("lru"), profile,
            admission=make_admission("freq_gate"),
        )
        assert cache.replay(object_trace.requests).as_dict() == expected
        assert profile.calls["admission"] > 0
        assert profile.phases["admission"] > 0.0

    def test_rlr_calls_land_in_their_phases(self, object_trace):
        """Each eviction is one ``victim_scoring`` call, each admission,
        hit and eviction one ``policy_update`` call."""
        profile = PhaseProfile("objcache")
        cache = make_profiled_object_cache(
            500_000, make_object_policy("rlr"), profile
        )
        decisions = []
        cache.add_decision_observer(lambda *args: decisions.append(args))
        stats = cache.replay(object_trace.requests)
        assert decisions  # the capacity forces evictions
        assert profile.calls["victim_scoring"] == len(decisions)
        assert profile.calls["policy_update"] == (
            stats.admitted + stats.hits + stats.evictions
        )
        assert profile.reconciliation()["relative_error"] <= 0.01


CELLS = (
    {"engine": "objcache", "policy": "lru", "objects": 200, "length": 1000},
    {"engine": "objcache", "policy": "rlr", "objects": 200, "length": 1000},
    {"engine": "replay", "policy": "lru", "scale": 64, "trace_length": 800},
)


class TestStructureDeterminism:
    def test_structure_is_identical_across_repeats(self):
        first = profile_structures(CELLS, jobs=1)
        second = profile_structures(CELLS, jobs=1)
        assert first == second

    def test_structure_is_byte_identical_across_jobs_1_vs_4(self):
        serial = profile_structures(CELLS, jobs=1)
        parallel = profile_structures(CELLS, jobs=4)
        canonical = [
            json.dumps(structure, separators=(",", ":"), sort_keys=True)
            for structure in serial
        ]
        assert canonical == [
            json.dumps(structure, separators=(",", ":"), sort_keys=True)
            for structure in parallel
        ]

    def test_digest_is_stable_across_extra_finish_calls(self):
        profile = PhaseProfile("objcache")
        profile.accesses = 7
        profile.count("victim_scoring", 3)
        profile.finish(0.5)
        digest = profile.structure_digest()
        profile.finish(2.5)  # more wall time, same structure
        assert profile.structure_digest() == digest

    def test_unknown_cell_engine_raises(self):
        with pytest.raises(ValueError, match="unknown profile engine"):
            profile_structures([{"engine": "serve"}], jobs=1)


class TestFlamegraphCapture:
    def test_capture_collapsed_returns_result_and_folded_lines(self):
        result, folded = capture_collapsed(lambda: sum(range(5000)))
        assert result == sum(range(5000))
        lines = folded.strip().splitlines()
        assert lines == sorted(lines)
        for line in lines:
            name, _, weight = line.rpartition(" ")
            assert name
            assert int(weight) > 0

    def test_caller_callee_edges_appear_in_the_folded_output(self):
        def inner():
            return sum(value * value for value in range(50_000))

        def busy():
            return [inner() for _ in range(5)]

        _, folded = capture_collapsed(busy)
        assert folded.endswith("\n")
        edges = [line for line in folded.splitlines() if ";" in line]
        assert any("inner" in edge for edge in edges)
