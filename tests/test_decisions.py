"""Tests for per-eviction decision tracing (:mod:`repro.telemetry.decisions`).

Covers the recorder (sampling, ring bounds, aggregate invariants), Belady
grading equivalence against the independent :class:`OracleProbePolicy`
implementation, both log codecs, schema validation, sanitizer-violation
capture, and the bit-for-bit equivalence between decision-stream victim
profiles and the original :class:`VictimCollector` replay.
"""

import json

import pytest

from repro.cache.replacement.base import ReplacementPolicy
from repro.eval.agreement import OracleProbePolicy, belady_agreement
from repro.eval.decision_stream import trace_decisions
from repro.eval.runner import _instantiate, _prepared, replay
from repro.eval.victim_analysis import VictimCollector, VictimStatistics
from repro.eval.workloads import EvalConfig
from repro.telemetry.decisions import (
    DecisionTrace,
    HARMFUL,
    KIND_VIOLATION,
    NEUTRAL,
    OPTIMAL,
    UNGRADED,
    active_trace,
    activate,
    deactivate,
    event_from_json,
    event_to_json,
    read_decision_log,
    validate_decision_log,
    write_decisions_jsonl,
)
from repro.traces.oracle import NextUseOracle


@pytest.fixture(scope="module")
def eval_config():
    return EvalConfig(scale=64, trace_length=3000, seed=3)


@pytest.fixture(scope="module")
def prepared(eval_config):
    return _prepared(eval_config, eval_config.trace("429.mcf"), 1, None)


def _traced_replay(prepared, policy="lru", **kwargs):
    kwargs.setdefault("workload", "429.mcf")
    if "oracle" not in kwargs:
        kwargs["oracle"] = NextUseOracle(prepared.llc_line_stream)
    decisions = DecisionTrace(**kwargs)
    replay(prepared, policy, decisions=decisions)
    return decisions


class TestRecorder:
    def test_aggregates_cover_every_eviction(self, prepared):
        full = _traced_replay(prepared)
        sampled = _traced_replay(prepared, sample_rate=7)
        # Sampling thins the event ring only; every aggregate is identical.
        assert sampled.evictions == full.evictions > 0
        assert sampled.summary()["graded"] == full.summary()["graded"]
        assert sampled.summary()["regret_x2"] == full.summary()["regret_x2"]
        assert sampled.set_evictions == full.set_evictions
        assert sampled.epoch_decisions == full.epoch_decisions
        assert sum(full.set_evictions.values()) == full.evictions

    def test_counter_based_sampling_is_deterministic(self, prepared):
        first = _traced_replay(prepared, sample_rate=5, oracle=None)
        second = _traced_replay(prepared, sample_rate=5, oracle=None)
        assert first.events() == second.events()
        # Every 5th eviction, starting with the first.
        expected = (first.evictions + 4) // 5
        assert first.sampled == expected

    def test_ring_capacity_bounds_memory_and_counts_drops(self, prepared):
        bounded = _traced_replay(prepared, capacity=16, oracle=None)
        unbounded = _traced_replay(prepared, capacity=None, oracle=None)
        assert len(bounded.events()) == 16
        assert bounded.dropped == unbounded.sampled - 16
        # The ring keeps the newest events.
        assert bounded.events() == unbounded.events()[-16:]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DecisionTrace(sample_rate=0)
        with pytest.raises(ValueError):
            DecisionTrace(capacity=0)

    def test_ungraded_without_oracle(self, prepared):
        decisions = _traced_replay(prepared, oracle=None)
        assert decisions.graded == 0
        assert all(event.grade == UNGRADED for event in decisions.events())


class TestGrading:
    def test_matches_oracle_probe_policy(self, eval_config, prepared):
        """Stream grading == the independent proxy-policy implementation."""
        for policy in ("lru", "srrip", "ship"):
            traced = _traced_replay(prepared, policy=policy)
            probe = OracleProbePolicy(
                _instantiate(policy, 1),
                NextUseOracle(prepared.llc_line_stream),
            )
            replay(prepared, probe)
            profile = probe.profile
            assert (traced.graded, traced.optimal, traced.neutral,
                    traced.harmful) == (
                profile.decisions, profile.optimal, profile.neutral,
                profile.harmful,
            ), policy

    def test_belady_is_always_optimal(self, prepared):
        from repro.cache.replacement.belady import BeladyPolicy

        decisions = _traced_replay(
            prepared, policy=BeladyPolicy(prepared.llc_line_stream)
        )
        assert decisions.graded == decisions.optimal > 0
        assert decisions.regret_x2 == 0

    def test_epoch_buckets_sum_to_totals(self, prepared):
        decisions = _traced_replay(prepared)
        assert sum(decisions.epoch_decisions) == decisions.graded
        assert sum(decisions.epoch_harmful) == decisions.harmful
        assert sum(decisions.epoch_neutral) == decisions.neutral

    def test_worst_decisions_are_harmful_and_ranked(self, prepared):
        decisions = _traced_replay(prepared, worst_n=4)
        worst = decisions.worst_decisions()
        assert 0 < len(worst) <= 4
        severities = [severity for severity, _ in worst]
        assert severities == sorted(severities, reverse=True)
        assert all(event.grade == HARMFUL for _, event in worst)

    def test_agreement_api_reads_the_stream(self, eval_config):
        profile = belady_agreement(eval_config, "429.mcf", "lru")
        assert profile.decisions > 0
        assert profile.decisions == (
            profile.optimal + profile.neutral + profile.harmful
        )


class TestVictimProfileEquivalence:
    def test_from_events_bit_identical_to_collector(self, eval_config, prepared):
        """Decision-stream Fig 5-7 profiles == a live VictimCollector."""
        for policy in ("lru", "drrip", "rlr_unopt"):
            collector = VictimCollector()
            replay(prepared, policy, detailed=True, observers=[collector])
            expected = collector.statistics()
            decisions = _traced_replay(prepared, policy=policy, oracle=None,
                                       capacity=None)
            actual = VictimStatistics.from_events(decisions.events())
            assert actual.victims == expected.victims
            assert actual.avg_age_by_type == expected.avg_age_by_type
            assert actual.hits_histogram == expected.hits_histogram
            assert actual.recency_histogram == expected.recency_histogram


class TestCodecs:
    def _payloads(self, prepared):
        return [
            _traced_replay(prepared, policy=policy).cell_payload()
            for policy in ("lru", "srrip")
        ]

    def test_jsonl_round_trip_is_exact(self, prepared, tmp_path):
        cells = self._payloads(prepared)
        path = write_decisions_jsonl(tmp_path / "decisions.jsonl", cells)
        loaded = read_decision_log(path)
        assert len(loaded) == len(cells)
        for original, restored in zip(cells, loaded):
            assert restored["events"] == original["events"]
            assert restored["violations"] == original["violations"]
            assert restored["summary"] == original["summary"]
            assert restored["epochs"] == original["epochs"]
            assert restored["set_evictions"] == original["set_evictions"]
            assert restored["worst"] == original["worst"]

    def test_validate_accepts_both_formats(self, prepared, tmp_path):
        """One validator for both cache kinds' logs."""
        from repro.objcache import generate_object_trace, replay_object_trace

        cells = self._payloads(prepared)
        cpu = write_decisions_jsonl(tmp_path / "decisions.jsonl", cells)
        trace = generate_object_trace(
            name="wl", kind="zipf", objects=100, length=1500, seed=3
        )
        objects = write_decisions_jsonl(tmp_path / "objects.jsonl", [
            replay_object_trace(trace, 200_000, "lru", decisions=1).decisions
        ])
        assert validate_decision_log(cpu) == []
        assert validate_decision_log(objects) == []

    def test_validate_flags_corruption(self, prepared, tmp_path):
        cells = self._payloads(prepared)
        path = tmp_path / "decisions.jsonl"
        write_decisions_jsonl(path, cells)
        lines = path.read_text().splitlines()
        cell_header = json.loads(lines[1])
        cell_header["summary"]["sampled"] += 1
        lines[1] = json.dumps(cell_header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        problems = validate_decision_log(path)
        assert any("summary.sampled" in problem for problem in problems)

    def test_validate_reports_garbage_without_raising(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"RDLG\x09not-a-log")
        assert validate_decision_log(path) != []
        missing = tmp_path / "missing.jsonl"
        assert validate_decision_log(missing) != []


class _WrongWayPolicy(ReplacementPolicy):
    """Returns an out-of-range way: the sanitizer's bread and butter."""

    name = "wrongway"

    def victim(self, set_index, cache_set, access):
        return cache_set.ways + 5


class TestViolationCapture:
    def test_sanitizer_violation_becomes_decision_event(self, prepared):
        decisions = DecisionTrace(workload="429.mcf", policy="wrongway")
        replay(prepared, _WrongWayPolicy(), sanitize="normal",
               decisions=decisions)
        violations = decisions.violations()
        assert violations, "expected the out-of-range victim to be recorded"
        event, detail = violations[0]
        assert event.kind == KIND_VIOLATION
        assert "wrongway" in detail
        payload = decisions.cell_payload()
        assert payload["summary"]["violations"] == len(violations)
        assert payload["violations"][0]["type"] == "violation"

    def test_active_trace_is_scoped_to_the_replay(self, prepared):
        assert active_trace() is None
        decisions = _traced_replay(prepared, oracle=None)
        # replay() deactivates on the way out, even though it activated.
        assert active_trace() is None
        assert decisions.evictions > 0

    def test_deactivate_ignores_stale_trace(self):
        current = DecisionTrace()
        stale = DecisionTrace()
        activate(current)
        try:
            deactivate(stale)
            assert active_trace() is current
        finally:
            deactivate(current)
        assert active_trace() is None


class TestTraceDecisionsHelper:
    def test_graded_stream_with_full_ring(self, eval_config):
        decisions = trace_decisions(
            eval_config, "403.gcc", "lru", graded=True
        )
        assert decisions.sampled == decisions.evictions == len(decisions.events())
        assert decisions.graded == decisions.evictions
        grades = {event.grade for event in decisions.events()}
        assert grades <= {OPTIMAL, NEUTRAL, HARMFUL}
