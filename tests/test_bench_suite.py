"""The bench matrix: payload schema, environment stamps, validate wiring.

Real engines on tiny specs — these tests check payload *shape* (schema
version, git stamp, phase attribution present and reconciled), never
absolute rates, which are machine noise by definition.
"""

import json
from pathlib import Path

import pytest

import repro.eval.bench as bench_mod
from repro.cli import main
from repro.eval.bench import write_bench
from repro.eval.bench_history import append_history
from repro.sanitize.preflight import validate_bench_file

REPO_ROOT = Path(__file__).resolve().parents[1]

TINY_REPLAY = {
    "workload": "429.mcf", "scale": 64, "trace_length": 1000, "seed": 7,
    "policies": ("lru", "rlr"),
}
TINY_OBJCACHE = {
    "objects": 150, "length": 900, "seed": 7, "alpha": 1.0,
    "capacity_bytes": 300_000, "policies": ("lru", "rlr"),
    "admissions": ("freq_gate",),
}
TINY_TRAIN = {
    "workload": "429.mcf", "scale": 64, "trace_length": 600, "seed": 7,
    "hidden_size": 8, "epochs": 1,
}
TINY_OVERHEAD = {
    "workload": "429.mcf", "scale": 64, "trace_length": 1500, "seed": 7,
    "budget": 0.02,
}


def assert_observatory_envelope(payload, bench):
    """Every family carries the schema + environment satellite fields."""
    assert payload["bench"] == bench
    assert payload["schema"] == bench_mod.BENCH_SCHEMA_VERSION
    environment = payload["environment"]
    assert set(environment) >= {"python", "implementation", "machine", "git"}
    assert set(environment["git"]) == {"sha", "dirty"}
    sha = environment["git"]["sha"]
    assert sha is None or len(sha) == 40


class TestReplayFamily:
    def test_payload_carries_phases_that_reconcile(self):
        payload = bench_mod.bench_replay(repeats=1, spec=TINY_REPLAY)
        assert_observatory_envelope(payload, "replay")
        assert set(payload["rates"]) == {"lru", "rlr"}
        assert set(payload["phases"]) == {"lru", "rlr"}
        for report in payload["phases"].values():
            assert report["engine"] == "replay"
            assert report["reconciliation"]["relative_error"] <= 0.01
            assert "victim_scoring" in report["phases"]
            assert len(report["digest"]) == 64
            for phase in report["phases"].values():
                assert "spread_ns" in phase


class TestObjcacheFamily:
    def test_admission_variants_get_their_own_rows(self):
        payload = bench_mod.bench_objcache(repeats=1, spec=TINY_OBJCACHE)
        assert_observatory_envelope(payload, "objcache")
        assert set(payload["rates"]) == {"lru", "rlr", "lru+freq_gate"}
        # Every variant accounts the admission phase (always-admit is still
        # a per-access record() + per-miss admit()); the gated variant just
        # spends real time there.
        for variant in payload["phases"].values():
            assert "admission" in variant["phases"]
        gated = payload["phases"]["lru+freq_gate"]["phases"]
        assert gated["admission"]["calls"] > 0
        assert gated["admission"]["seconds"] >= 0.0


class TestTrainFamily:
    def test_one_epoch_records_per_second(self):
        payload = bench_mod.bench_train(repeats=1, spec=TINY_TRAIN)
        assert_observatory_envelope(payload, "train")
        assert payload["rates"]["qlearner"] > 0
        assert payload["llc_records"] > 0


class TestOverheadFamily:
    def test_all_budget_checks_hold(self):
        payload = bench_mod.bench_overhead(repeats=1, spec=TINY_OVERHEAD)
        assert_observatory_envelope(payload, "overhead")
        assert set(payload["checks"]) == {
            "telemetry_hooks_disabled", "decision_observer_loop",
            "telemetry_disabled_identity",
        }
        for name, check in payload["checks"].items():
            assert check["ok"], f"budget check {name} busted: {check}"
            assert "value" in check and "budget" in check


class TestHelpers:
    def test_git_state_shape(self):
        state = bench_mod._git_state()
        assert set(state) == {"sha", "dirty"}
        if state["sha"] is not None:
            assert len(state["sha"]) == 40
            assert isinstance(state["dirty"], bool)


class TestValidateBench:
    def test_written_snapshot_validates_clean(self, tmp_path):
        payload, path = write_bench("replay", output_dir=tmp_path,
                                    repeats=1, spec=TINY_REPLAY)
        report = validate_bench_file(path)
        assert report.ok, report.format()
        assert f"schema {bench_mod.BENCH_SCHEMA_VERSION}" in report.summary

    def test_schema_problems_fail_validation(self, tmp_path):
        path = tmp_path / "BENCH_replay.json"
        path.write_text(json.dumps({
            "bench": "nope", "schema": 99, "rates": {"lru": -1.0},
        }))
        report = validate_bench_file(path)
        assert not report.ok
        text = report.format()
        assert "unknown bench name" in text
        assert "newer than this checkout" in text or "schema" in text

    def test_committed_baselines_validate_clean(self):
        """The committed ``BENCH_*.json`` files and history name only
        benches in ``BENCHES``: a leftover family fails here, not silently
        in ``bench --compare``."""
        paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert {path.name for path in paths} == {
            filename for _, filename in bench_mod.BENCHES.values()
        }
        for path in paths + [REPO_ROOT / "BENCH_history.jsonl"]:
            report = validate_bench_file(path)
            assert report.ok and not report.warnings, report.format()

    def test_history_with_damage_fails_validation(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history(path, {"bench": "replay", "schema": 2,
                              "environment": {"python": "3",
                                              "git": {"sha": None,
                                                      "dirty": None}},
                              "rates": {"lru": 1.0}})
        append_history(path, {"bench": "replay", "schema": 2,
                              "environment": {"python": "3",
                                              "git": {"sha": None,
                                                      "dirty": None}},
                              "rates": {"lru": 2.0}})
        assert validate_bench_file(path).ok
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0][:12] + "Z" * 8 + lines[0][20:]
        path.write_text("".join(lines))
        report = validate_bench_file(path)
        assert not report.ok
        assert "history line 1" in report.format()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestValidateCli:
    def test_auto_sniffs_bench_snapshots_and_history(self, tmp_path,
                                                     capsys):
        _, path = write_bench("replay", output_dir=tmp_path, repeats=1,
                              spec=TINY_REPLAY)
        code, out = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert "bench 'replay'" in out

    def test_bad_snapshot_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "BENCH_broken.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "does not parse as JSON" in out

    def test_explicit_kind_bench_overrides_sniffing(self, tmp_path,
                                                    capsys):
        path = tmp_path / "oddly_named.json"
        path.write_text(json.dumps({"bench": "nope"}))
        code, out = run_cli(capsys, "validate", "--kind", "bench", str(path))
        assert code == 1
        assert "unknown bench name" in out
