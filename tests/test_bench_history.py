"""Bench history + regression gate on synthetic payloads.

All payloads here are hand-built — the gate's verdicts must be a pure
function of the numbers, so no real benchmark (with its machine noise)
appears anywhere in this file.  CLI-level exit codes use a monkeypatched
instant fake bench for the same reason.
"""

import json

import pytest

import repro.eval.bench as bench_mod
from repro.cli import main
from repro.eval.bench_history import (
    DEFAULT_THRESHOLD,
    FAMILY_THRESHOLDS,
    append_history,
    compare,
    format_history,
    latest_per_bench,
    load_history,
    resolve_baseline,
)


def payload(bench="replay", rates=None, phases=None, checks=None,
            sha="a" * 40, dirty=False, schema=2):
    body = {
        "bench": bench,
        "schema": schema,
        "unit": "units/sec",
        "repeats": 1,
        "environment": {
            "python": "3.11.0", "implementation": "CPython",
            "machine": "x86_64", "git": {"sha": sha, "dirty": dirty},
        },
        "rates": dict(rates or {}),
        "phases": dict(phases or {}),
    }
    if checks is not None:
        body["checks"] = dict(checks)
    return body


def phase_block(digest=None, **per_access_ns):
    block = {"phases": {
        name: {"seconds": ns / 1e9, "calls": 1, "per_access_ns": ns}
        for name, ns in per_access_ns.items()
    }}
    if digest is not None:
        block["digest"] = digest
    return block


class TestHistoryLog:
    def test_append_then_load_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        first = payload(rates={"lru": 1000.0})
        second = payload(bench="objcache", rates={"gdsf": 500.0})
        append_history(path, first)
        append_history(path, second)
        payloads, damage = load_history(path)
        assert payloads == [first, second]
        assert damage == []

    def test_corrupt_line_is_salvaged_not_fatal(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        for rate in (100.0, 200.0, 300.0):
            append_history(path, payload(rates={"lru": rate}))
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        lines[1] = lines[1][:10] + "X" * 10 + lines[1][20:]  # bit rot
        path.write_text("".join(lines))
        payloads, damage = load_history(path)
        assert [p["rates"]["lru"] for p in payloads] == [100.0, 300.0]
        assert len(damage) == 1
        assert damage[0][0] == 2  # the damaged line is located by number

    def test_latest_per_bench_keeps_append_order_winner(self):
        payloads = [
            payload(rates={"lru": 1.0}),
            payload(bench="objcache", rates={"lru": 2.0}),
            payload(rates={"lru": 3.0}),
        ]
        latest = latest_per_bench(payloads)
        assert latest["replay"]["rates"]["lru"] == 3.0
        assert latest["objcache"]["rates"]["lru"] == 2.0

    def test_format_history_renders_rates_checks_and_damage(self, tmp_path):
        rows = format_history(
            [
                payload(rates={"lru": 1234.5}),
                payload(bench="overhead", rates={}, checks={
                    "budget": {"value": 0.5, "budget": 0.02, "ok": False},
                }),
            ],
            damage=[(7, "crc mismatch")],
        )
        assert "1234.5" in rows
        assert "[FAIL]" in rows
        assert "line 7" in rows
        assert format_history([], []).endswith("(history is empty)")


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

    def test_from_history_takes_latest_and_notes_damage(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history(path, payload(rates={"lru": 1.0}))
        append_history(path, payload(rates={"lru": 2.0}))
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0][:5] + "?" + lines[0][6:]
        path.write_text("".join(lines))
        baseline, notes = resolve_baseline(path)
        assert baseline["replay"]["rates"]["lru"] == 2.0
        assert any("damaged line" in note for note in notes)

    def test_from_single_snapshot(self, tmp_path):
        path = tmp_path / "BENCH_train.json"
        path.write_text(json.dumps(payload(bench="train",
                                           rates={"qlearner": 5.0})))
        baseline, _ = resolve_baseline(path)
        assert set(baseline) == {"train"}

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

    def test_tolerance_overrides_every_family_threshold(self):
        baseline = {"replay": payload(rates={"lru": 1000.0})}
        current = {"replay": payload(rates={"lru": 700.0})}
        assert not compare(current, baseline).ok
        assert compare(current, baseline, tolerance=0.5).ok
        assert not compare(current, baseline, tolerance=0.1).ok

    def test_family_thresholds_cover_every_bench(self):
        assert set(FAMILY_THRESHOLDS) == set(bench_mod.BENCHES)
        assert 0 < DEFAULT_THRESHOLD < 1

    def test_overhead_gates_on_absolute_ok_flags(self):
        current = {"overhead": payload(bench="overhead", checks={
            "identity": {"value": 1.0, "budget": None, "ok": True},
            "hooks": {"value": 0.5, "budget": 0.02, "ok": False},
        })}
        report = compare(current, {})  # no baseline needed for budgets
        assert not report.ok
        (row,) = report.regressions
        assert row.key == "hooks"
        assert "budget check failed" in report.format()

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
            "train": payload(bench="train", rates={"qlearner": 5.0}),
        }
        current = {"replay": payload(rates={"lru": 1000.0})}
        report = compare(current, baseline)
        assert report.ok
        assert any("'train'" in note and "not run" in note
                   for note in report.notes)

    def test_as_dict_round_trips_through_json(self):
        baseline = {"replay": payload(rates={"lru": 1000.0})}
        current = {"replay": payload(rates={"lru": 700.0})}
        report = compare(current, baseline).as_dict()
        assert json.loads(json.dumps(report)) == report
        assert report["ok"] is False


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture()
def fake_bench(monkeypatch):
    """An instant deterministic bench so CLI exit codes are noise-free."""
    state = {"rate": 1000.0}

    def bench(repeats=1, spec=None):
        return payload(rates={"lru": state["rate"]},
                       phases={"lru": phase_block(tag_lookup=50.0)})

    monkeypatch.setattr(bench_mod, "BENCHES",
                        {"replay": (bench, "BENCH_replay.json")})
    return state


class TestBenchCompareCli:
    def test_identical_rerun_exits_zero(self, fake_bench, tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        code, _ = run_cli(capsys, "bench", "replay",
                          "--output-dir", str(base),
                          "--run-dir", str(tmp_path / "runs"))
        assert code == 0
        code, out = run_cli(capsys, "bench", "replay",
                            "--output-dir", str(tmp_path),
                            "--run-dir", str(tmp_path / "runs"),
                            "--compare", str(base))
        assert code == 0
        assert "PASS" in out

    def test_injected_regression_exits_one_with_blame(self, fake_bench,
                                                      tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        run_cli(capsys, "bench", "replay", "--output-dir", str(base),
                "--run-dir", str(tmp_path / "runs"))
        fake_bench["rate"] = 100.0  # 90% slower than the recorded baseline
        code, out = run_cli(capsys, "bench", "replay",
                            "--output-dir", str(tmp_path),
                            "--run-dir", str(tmp_path / "runs"),
                            "--compare", str(base))
        assert code == 1
        assert "REGRESSION replay/lru" in out
        assert "FAIL: 1 regression(s)" in out

    def test_generous_tolerance_absorbs_the_same_drop(self, fake_bench,
                                                      tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        run_cli(capsys, "bench", "replay", "--output-dir", str(base),
                "--run-dir", str(tmp_path / "runs"))
        fake_bench["rate"] = 800.0  # -20%: above 0.1, below 0.5
        code, _ = run_cli(capsys, "bench", "replay",
                          "--output-dir", str(tmp_path),
                          "--run-dir", str(tmp_path / "runs"),
                          "--compare", str(base), "--tolerance", "0.5")
        assert code == 0
        code, _ = run_cli(capsys, "bench", "replay",
                          "--output-dir", str(tmp_path),
                          "--run-dir", str(tmp_path / "runs"),
                          "--compare", str(base), "--tolerance", "0.1")
        assert code == 1

    def test_missing_baseline_is_a_usage_error(self, fake_bench, tmp_path,
                                               capsys):
        code, _ = run_cli(capsys, "bench", "replay",
                          "--output-dir", str(tmp_path),
                          "--run-dir", str(tmp_path / "runs"),
                          "--compare", str(tmp_path / "missing"))
        assert code == 2

    def test_history_accumulates_and_renders(self, fake_bench, tmp_path,
                                             capsys):
        history = tmp_path / "BENCH_history.jsonl"
        for _ in range(2):
            run_cli(capsys, "bench", "replay",
                    "--output-dir", str(tmp_path),
                    "--run-dir", str(tmp_path / "runs"),
                    "--history", str(history))
        payloads, damage = load_history(history)
        assert len(payloads) == 2 and damage == []
        code, out = run_cli(capsys, "bench", "history",
                            "--history", str(history))
        assert code == 0
        assert out.count("replay") >= 2

    def test_no_history_opts_out(self, fake_bench, tmp_path, capsys):
        run_cli(capsys, "bench", "replay", "--output-dir", str(tmp_path),
                "--run-dir", str(tmp_path / "runs"), "--no-history")
        assert not (tmp_path / "BENCH_history.jsonl").exists()

    def test_compare_against_own_fresh_history_passes(self, fake_bench,
                                                      tmp_path, capsys):
        """The baseline snapshots BEFORE the run appends to the history."""
        history = tmp_path / "BENCH_history.jsonl"
        run_cli(capsys, "bench", "replay", "--output-dir", str(tmp_path),
                "--run-dir", str(tmp_path / "runs"),
                "--history", str(history))
        fake_bench["rate"] = 100.0
        code, _ = run_cli(capsys, "bench", "replay",
                          "--output-dir", str(tmp_path),
                          "--run-dir", str(tmp_path / "runs"),
                          "--history", str(history),
                          "--compare", str(history))
        # The regressed run still gates against the PREVIOUS entry even
        # though it appended its own payload to the same history file.
        assert code == 1
