"""The bench families, their snapshots and the regression gate.

The family tests run the real engines on tiny specs and check payload
*shape* (schema version, git stamp, phases present and reconciled, each
rate read off its phase record), never absolute rates, which are machine
noise by definition.  The gate tests use hand-built payloads, and the CLI
exit codes an instant fake bench, so their verdicts are a pure function of
the numbers.
"""

import json
from pathlib import Path

import pytest

import repro.eval.bench as bench_mod
from repro.cli import main
from repro.eval.bench import compare, resolve_baseline, write_bench
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


def assert_observatory_envelope(payload, bench):
    """Every family carries the schema + environment fields, and reads
    each key's rate off its phase record."""
    assert payload["bench"] == bench
    assert payload["schema"] == bench_mod.BENCH_SCHEMA_VERSION
    environment = payload["environment"]
    assert set(environment) >= {"python", "implementation", "machine", "git"}
    assert set(environment["git"]) == {"sha", "dirty"}
    sha = environment["git"]["sha"]
    assert sha is None or len(sha) == 40
    assert set(payload["rates"]) == set(payload["phases"])
    for key, record in payload["phases"].items():
        assert payload["rates"][key] == pytest.approx(
            record["accesses"] / record["loop_seconds"], abs=0.1
        )


class TestReplayFamily:
    def test_payload_carries_phases_that_reconcile(self):
        payload = bench_mod.bench_replay(spec=TINY_REPLAY)
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
        payload = bench_mod.bench_objcache(spec=TINY_OBJCACHE)
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
                                    spec=TINY_REPLAY)
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
        """The repo root holds exactly one snapshot per bench in
        ``BENCHES``: a leftover file fails here, not silently in ``bench
        --compare``."""
        paths = sorted(REPO_ROOT.glob("BENCH_*"))
        assert [path.name for path in paths] == [
            "BENCH_objcache.json", "BENCH_replay.json"
        ]
        assert {path.name for path in paths} == {
            filename for _, filename in bench_mod.BENCHES.values()
        }
        for path in paths:
            report = validate_bench_file(path)
            assert report.ok and not report.warnings, report.format()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestValidateCli:
    def test_auto_sniffs_bench_snapshots_and_history(self, tmp_path,
                                                     capsys):
        _, path = write_bench("replay", output_dir=tmp_path,
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


# -- the regression gate --------------------------------------------------------


def payload(bench="replay", rates=None, phases=None, sha="a" * 40,
            dirty=False, schema=2):
    return {
        "bench": bench,
        "schema": schema,
        "unit": "units/sec",
        "environment": {
            "python": "3.11.0", "implementation": "CPython",
            "machine": "x86_64", "git": {"sha": sha, "dirty": dirty},
        },
        "rates": dict(rates or {}),
        "phases": dict(phases or {}),
    }


def phase_block(digest=None, **per_access_ns):
    block = {"phases": {
        name: {"seconds": ns / 1e9, "calls": 1, "per_access_ns": ns}
        for name, ns in per_access_ns.items()
    }}
    if digest is not None:
        block["digest"] = digest
    return block


class TestResolveBaseline:
    def test_from_directory_of_snapshots(self, tmp_path):
        (tmp_path / "BENCH_replay.json").write_text(
            json.dumps(payload(rates={"lru": 10.0}))
        )
        (tmp_path / "BENCH_objcache.json").write_text(
            json.dumps(payload(bench="objcache", rates={"lru": 20.0}))
        )
        baseline, notes = resolve_baseline(tmp_path)
        assert set(baseline) == {"replay", "objcache"}
        assert notes == []

    def test_from_single_snapshot(self, tmp_path):
        path = tmp_path / "BENCH_objcache.json"
        path.write_text(json.dumps(payload(bench="objcache",
                                           rates={"lru": 5.0})))
        baseline, _ = resolve_baseline(path)
        assert set(baseline) == {"objcache"}

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_baseline(tmp_path / "nope.json")

    def test_non_bench_json_raises(self, tmp_path):
        path = tmp_path / "thing.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a bench payload"):
            resolve_baseline(path)


class TestCompare:
    def test_identical_payloads_pass_clean(self):
        current = {"replay": payload(rates={"lru": 1000.0, "rlr": 800.0})}
        report = compare(current, current)
        assert report.ok
        assert {row.status for row in report.rows} == {"ok"}
        assert report.format().endswith("PASS")

    def test_genuine_regression_fails_the_gate(self):
        baseline = {"replay": payload(rates={"lru": 1000.0})}
        current = {"replay": payload(rates={"lru": 700.0})}
        report = compare(current, baseline)  # 30% drop > 25% threshold
        assert not report.ok
        (row,) = report.regressions
        assert row.key == "lru"
        assert row.delta_pct == pytest.approx(-30.0)
        text = report.format()
        assert "REGRESSION replay/lru" in text
        assert text.endswith("FAIL: 1 regression(s)")

    def test_noise_within_threshold_passes(self):
        baseline = {"replay": payload(rates={"lru": 1000.0})}
        current = {"replay": payload(rates={"lru": 900.0})}
        report = compare(current, baseline)  # 10% drop < 25% threshold
        assert report.ok
        (row,) = report.rows
        assert row.status == "ok"
        assert row.delta_pct == pytest.approx(-10.0)

    def test_improvement_is_informational_not_gated(self):
        baseline = {"replay": payload(rates={"lru": 1000.0})}
        current = {"replay": payload(rates={"lru": 1400.0})}
        report = compare(current, baseline)
        assert report.ok
        assert report.rows[0].status == "improved"

    def test_missing_baseline_bench_and_key_are_new_never_failures(self):
        baseline = {"replay": payload(rates={"lru": 1000.0})}
        current = {
            "replay": payload(rates={"lru": 1000.0, "rlr": 5.0}),
            "objcache": payload(bench="objcache", rates={"lru": 5.0}),
        }
        report = compare(current, baseline)
        assert report.ok
        news = {(row.bench, row.key)
                for row in report.rows if row.status == "new"}
        assert news == {("replay", "rlr"), ("objcache", "lru")}

    def test_tolerance_overrides_the_threshold(self):
        baseline = {"replay": payload(rates={"lru": 1000.0})}
        current = {"replay": payload(rates={"lru": 700.0})}
        assert not compare(current, baseline).ok
        assert compare(current, baseline, tolerance=0.5).ok
        assert not compare(current, baseline, tolerance=0.1).ok

    def test_regression_report_blames_the_slowest_growing_phase(self):
        baseline = {"replay": payload(
            rates={"lru": 1000.0},
            phases={"lru": phase_block(tag_lookup=50.0,
                                       victim_scoring=100.0)},
        )}
        current = {"replay": payload(
            rates={"lru": 600.0},
            phases={"lru": phase_block(tag_lookup=55.0,
                                       victim_scoring=240.0)},
        )}
        report = compare(current, baseline)
        assert not report.ok
        blame = report.worst_phase("replay", "lru")
        assert blame.phase == "victim_scoring"
        assert blame.delta_pct == pytest.approx(140.0)
        text = report.format()
        assert "slowest-growing phase: victim_scoring" in text
        assert "per-phase deltas (ns/access)" in text
        assert "tag_lookup" in text  # the full table, not just the blame

    def test_phases_of_another_schema_are_not_compared(self):
        """A schema-2 baseline timed its phases with in-loop proxies, a
        schema-3 run by differencing plain runs: the rates still gate, but
        no phase is blamed across the two methods."""
        baseline = {"replay": payload(
            rates={"lru": 1000.0},
            phases={"lru": phase_block(tag_lookup=50.0,
                                       victim_scoring=100.0)},
        )}
        current = {"replay": payload(
            rates={"lru": 600.0}, schema=3,
            phases={"lru": phase_block(tag_lookup=55.0,
                                       victim_scoring=240.0)},
        )}
        report = compare(current, baseline)
        assert not report.ok
        assert report.phase_deltas == []
        assert report.worst_phase("replay", "lru") is None
        assert "per-phase deltas" not in report.format()

    def test_changed_digest_is_noted_not_gated(self):
        baseline = {"replay": payload(
            rates={"lru": 1000.0, "rlr": 800.0}, schema=3,
            phases={"lru": phase_block(digest="a" * 64, tag_lookup=50.0),
                    "rlr": phase_block(digest="c" * 64, tag_lookup=60.0)},
        )}
        current = {"replay": payload(
            rates={"lru": 1000.0, "rlr": 800.0}, schema=3,
            phases={"lru": phase_block(digest="b" * 64, tag_lookup=50.0),
                    "rlr": phase_block(digest="c" * 64, tag_lookup=60.0)},
        )}
        report = compare(current, baseline)
        assert report.ok
        (note,) = report.notes
        assert "replay/lru" in note and "different result" in note
        assert "aaaaaaaaaaaa -> bbbbbbbbbbbb" in note
        assert report.format().endswith("PASS")

    def test_baseline_bench_not_run_is_noted_not_gated(self):
        baseline = {
            "replay": payload(rates={"lru": 1000.0}),
            "objcache": payload(bench="objcache", rates={"lru": 5.0}),
        }
        current = {"replay": payload(rates={"lru": 1000.0})}
        report = compare(current, baseline)
        assert report.ok
        assert any("'objcache'" in note and "not run" in note
                   for note in report.notes)

    def test_as_dict_round_trips_through_json(self):
        baseline = {"replay": payload(rates={"lru": 1000.0})}
        current = {"replay": payload(rates={"lru": 700.0})}
        report = compare(current, baseline).as_dict()
        assert json.loads(json.dumps(report)) == report
        assert report["ok"] is False


@pytest.fixture()
def fake_bench(monkeypatch):
    """An instant deterministic bench so CLI exit codes are noise-free."""
    state = {"rate": 1000.0}

    def bench(spec=None):
        return payload(rates={"lru": state["rate"]},
                       phases={"lru": phase_block(tag_lookup=50.0)})

    monkeypatch.setattr(bench_mod, "BENCHES",
                        {"replay": (bench, "BENCH_replay.json")})
    return state


class TestBenchCompareCli:
    def test_identical_rerun_exits_zero(self, fake_bench, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = tmp_path / "base"
        base.mkdir()
        code, _ = run_cli(capsys, "bench", "replay",
                          "--output-dir", str(base))
        assert code == 0
        code, out = run_cli(capsys, "bench", "replay",
                            "--output-dir", str(tmp_path),
                            "--compare", str(base))
        assert code == 0
        assert "PASS" in out
        # The snapshots are all a run leaves behind: no run directory.
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "BENCH_replay.json", "base"
        ]

    def test_injected_regression_exits_one_with_blame(self, fake_bench,
                                                      tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        run_cli(capsys, "bench", "replay", "--output-dir", str(base))
        fake_bench["rate"] = 100.0  # 90% slower than the recorded baseline
        code, out = run_cli(capsys, "bench", "replay",
                            "--output-dir", str(tmp_path),
                            "--compare", str(base))
        assert code == 1
        assert "REGRESSION replay/lru" in out
        assert "FAIL: 1 regression(s)" in out

    def test_generous_tolerance_absorbs_the_same_drop(self, fake_bench,
                                                      tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        run_cli(capsys, "bench", "replay", "--output-dir", str(base))
        fake_bench["rate"] = 800.0  # -20%: above 0.1, below 0.5
        code, _ = run_cli(capsys, "bench", "replay",
                          "--output-dir", str(tmp_path),
                          "--compare", str(base), "--tolerance", "0.5")
        assert code == 0
        code, _ = run_cli(capsys, "bench", "replay",
                          "--output-dir", str(tmp_path),
                          "--compare", str(base), "--tolerance", "0.1")
        assert code == 1

    def test_missing_baseline_is_a_usage_error(self, fake_bench, tmp_path,
                                               capsys):
        code, _ = run_cli(capsys, "bench", "replay",
                          "--output-dir", str(tmp_path),
                          "--compare", str(tmp_path / "missing"))
        assert code == 2

    def test_baseline_without_a_bench_that_runs_is_a_usage_error(
        self, fake_bench, tmp_path, capsys
    ):
        """An empty directory, or a snapshot of another family only, would
        mark every key ``new`` and pass: a renamed or deleted snapshot
        must not turn the gate off silently."""
        empty = tmp_path / "empty"
        empty.mkdir()
        other = tmp_path / "BENCH_objcache.json"
        other.write_text(json.dumps(payload(bench="objcache",
                                            rates={"lru": 5.0})))
        for baseline in (empty, other):
            code = main(["bench", "replay", "--output-dir", str(tmp_path),
                         "--compare", str(baseline)])
            captured = capsys.readouterr()
            assert code == 2
            assert "bench --compare:" in captured.err
        assert not (tmp_path / "BENCH_replay.json").exists()

    def test_compare_against_own_output_dir_gates_the_previous_snapshot(
        self, fake_bench, tmp_path, capsys
    ):
        """The baseline is read BEFORE the run overwrites the snapshot it
        was read from."""
        run_cli(capsys, "bench", "replay", "--output-dir", str(tmp_path))
        fake_bench["rate"] = 100.0
        code, out = run_cli(capsys, "bench", "replay",
                            "--output-dir", str(tmp_path),
                            "--compare", str(tmp_path))
        assert code == 1
        assert "REGRESSION replay/lru" in out
        snapshot = json.loads((tmp_path / "BENCH_replay.json").read_text())
        assert snapshot["rates"] == {"lru": 100.0}
