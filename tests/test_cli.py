"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


SMALL = ("--scale", "64", "--length", "2000")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestListCommand:
    def test_lists_workloads_and_policies(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "429.mcf" in out
        assert "cassandra" in out
        assert "rlr" in out
        assert "belady" in out


class TestTable1Command:
    def test_prints_overheads(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        assert "16.75" in out  # RLR @ 2MB
        assert "hawkeye" in out


class TestSimulateCommand:
    def test_summary_fields(self, capsys):
        code, out = run_cli(capsys, "simulate", "470.lbm", "--policy", "rlr", *SMALL)
        assert code == 0
        assert "IPC:" in out
        assert "demand MPKI:" in out


class TestCompareCommand:
    def test_table_with_baseline_column(self, capsys):
        code, out = run_cli(
            capsys, "compare", "471.omnetpp",
            "--policies", "lru", "rlr", "--belady", *SMALL,
        )
        assert code == 0
        assert "vs lru" in out
        assert "belady" in out


class TestMixCommand:
    def test_four_core_mix(self, capsys):
        code, out = run_cli(
            capsys, "mix", "429.mcf", "470.lbm", "403.gcc", "483.xalancbmk",
            "--policies", "rlr", *SMALL,
        )
        assert code == 0
        assert "mix speedup" in out


class TestTraceCommand:
    def test_writes_trace_file(self, capsys, tmp_path):
        output = tmp_path / "trace.csv"
        code, out = run_cli(capsys, "trace", "403.gcc", str(output), *SMALL)
        assert code == 0
        assert output.exists()
        from repro.traces.trace_io import load_trace

        assert len(load_trace(output)) == 2000


class TestMPKICommand:
    def test_mpki_table(self, capsys):
        code, out = run_cli(
            capsys, "mpki", "--policies", "rlr", "--min-mpki", "0.5",
            "--suite", "cloudsuite", *SMALL,
        )
        assert code == 0
        assert "demand MPKI" in out


class TestTrainCommand:
    def test_trains_and_saves(self, capsys, tmp_path):
        path = tmp_path / "agent.npz"
        code, out = run_cli(
            capsys, "train", "450.soplex", "--hidden", "8",
            "--save", str(path), "--scale", "64", "--length", "1500",
        )
        assert code == 0
        assert "LLC hit rate" in out
        assert path.exists()
        # Round-trip the saved agent.
        from repro.rl.trainer import load_agent

        trained = load_agent(path)
        assert trained.agent.network.hidden_size == 8
        assert trained.extractor.size == trained.agent.network.input_size


class TestHillclimbCommand:
    def test_runs_selection(self, capsys):
        code, out = run_cli(
            capsys, "hillclimb", "450.soplex", "--budget", "800",
            "--max-features", "2", "--scale", "64", "--length", "1500",
        )
        assert code == 0
        assert "selected:" in out


class TestReportCommand:
    def test_writes_markdown_report(self, capsys, tmp_path):
        output = tmp_path / "report.md"
        code, out = run_cli(
            capsys, "report", str(output),
            "--scale", "64", "--length", "1500",
        )
        assert code == 0
        text = output.read_text()
        assert "# RLR reproduction report" in text
        assert "Table I" in text
        assert "Single-core speedups" in text
        assert "preuse" in text


class TestSweepCommand:
    def test_cloudsuite_sweep(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "sweep", "--suite", "cloudsuite",
            "--policies", "rlr", "--scale", "64", "--length", "1200",
            "--run-dir", str(tmp_path / "runs"),
        )
        assert code == 0
        assert "geomean speedup over lru" in out
        assert "cassandra" in out
        assert (tmp_path / "runs" / "run-0001" / "report.json").is_file()


class TestSweepMetrics:
    def test_metrics_flag_writes_and_prints(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "sweep", "--suite", "cloudsuite",
            "--policies", "drrip", "--scale", "64", "--length", "1200",
            "--run-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "prep"), "--metrics",
        )
        assert code == 0
        assert "counters (sweep)" in out
        assert "sweep.cells_ok" in out
        assert "prep cache:" in out
        run_dir = tmp_path / "runs" / "run-0001"
        assert (run_dir / "metrics.json").is_file()
        assert (run_dir / "spans.jsonl").is_file()
        from repro.telemetry.export import load_metrics_json, validate_metrics

        payload = load_metrics_json(run_dir)
        assert validate_metrics(payload) == []
        assert payload["kind"] == "sweep"
        assert payload["meta"]["run_id"] == "run-0001"
        from repro.telemetry.spans import read_spans

        loops = [span for span in read_spans(run_dir / "spans.jsonl")
                 if span["name"] in ("prepare_workload", "replay")]
        assert {span["name"] for span in loops} == {"prepare_workload",
                                                    "replay"}
        assert all(span["attrs"]["records"] > 0 for span in loops)

    def test_prep_cache_summary_always_printed(self, capsys, tmp_path):
        # Even without --metrics, the end-of-run summary reports the
        # prepared-workload cache outcome.
        code, out = run_cli(
            capsys, "sweep", "--suite", "cloudsuite",
            "--policies", "drrip", "--scale", "64", "--length", "1200",
            "--run-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "prep"),
        )
        assert code == 0
        assert "prep cache: 0 hit(s), 5 miss(es), 0 corrupt" in out
        capsys.readouterr()
        code, out = run_cli(
            capsys, "sweep", "--suite", "cloudsuite",
            "--policies", "drrip", "--scale", "64", "--length", "1200",
            "--run-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "prep"),
        )
        assert code == 0
        assert "prep cache: 5 hit(s), 0 miss(es), 0 corrupt" in out


class TestMetricsCommand:
    def _sweep(self, capsys, tmp_path):
        run_cli(
            capsys, "sweep", "--suite", "cloudsuite",
            "--policies", "drrip", "--scale", "64", "--length", "1200",
            "--run-dir", str(tmp_path / "runs"), "--metrics",
        )
        capsys.readouterr()
        return tmp_path / "runs" / "run-0001"

    def test_renders_run_directory(self, capsys, tmp_path):
        run_dir = self._sweep(capsys, tmp_path)
        code, out = run_cli(capsys, "metrics", str(run_dir))
        assert code == 0
        assert "counters (sweep)" in out
        assert "spans (spans.jsonl)" in out
        assert "replay" in out

    def test_missing_run_is_clean_error(self, capsys):
        code, out = run_cli(capsys, "metrics", "run-9999")
        assert code == 2

    def test_missing_run_error_lists_known_runs(self, capsys, tmp_path,
                                                monkeypatch):
        import repro.cli as cli_module

        monkeypatch.setattr(
            cli_module, "DEFAULT_RUN_ROOT", str(tmp_path / "runs")
        )
        self._sweep(capsys, tmp_path)
        code = main(["metrics", "run-9999"])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert "run-0001" in captured.err

    def test_partial_run_directory_is_clean_error(self, capsys, tmp_path):
        # A run directory that exists but was never started with --metrics.
        run_dir = tmp_path / "runs" / "run-0001"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text('{"kind": "sweep"}')
        code = main(["metrics", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert "--metrics" in captured.err

    def test_corrupt_metrics_json_is_clean_error(self, capsys, tmp_path):
        run_dir = tmp_path / "runs" / "run-0001"
        run_dir.mkdir(parents=True)
        (run_dir / "metrics.json").write_text("garbage{")
        code = main(["metrics", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert "could not read" in captured.err


class TestDecisionsFlag:
    def _sweep(self, capsys, tmp_path, *extra):
        code, out = run_cli(
            capsys, "sweep", "--suite", "cloudsuite",
            "--policies", "drrip", "--scale", "64", "--length", "1200",
            "--run-dir", str(tmp_path / "runs"), *extra,
        )
        return code, out, tmp_path / "runs" / "run-0001"

    def test_sweep_decisions_writes_the_log(self, capsys, tmp_path):
        code, out, run_dir = self._sweep(capsys, tmp_path, "--decisions")
        assert code == 0
        assert "Belady regret per cell" in out
        assert (run_dir / "decisions.jsonl").is_file()
        from repro.telemetry.decisions import validate_decision_log

        assert validate_decision_log(run_dir / "decisions.jsonl") == []

    def test_sweep_without_decisions_writes_no_logs(self, capsys, tmp_path):
        code, out, run_dir = self._sweep(capsys, tmp_path)
        assert code == 0
        assert "Belady regret" not in out
        assert not (run_dir / "decisions.jsonl").exists()

    def test_sample_rate_round_trips_the_manifest(self, capsys, tmp_path):
        import json

        code, out, run_dir = self._sweep(capsys, tmp_path, "--decisions", "3")
        assert code == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["args"]["decisions"] == 3


class TestReplayCommand:
    def test_replay_without_decisions_prints_summary(self, capsys):
        code, out = run_cli(capsys, "replay", "429.mcf", "--policy", "lru",
                            *SMALL)
        assert code == 0
        assert "IPC:" in out
        assert "regret" not in out

    def test_replay_decisions_writes_inspectable_log(self, capsys, tmp_path):
        run_root = str(tmp_path / "runs")
        code, out = run_cli(
            capsys, "replay", "429.mcf", "--policy", "lru", "--decisions",
            "--run-dir", run_root, *SMALL,
        )
        assert code == 0
        assert "Belady regret:" in out
        run_dir = tmp_path / "runs" / "run-0001"
        assert (run_dir / "decisions.jsonl").is_file()
        capsys.readouterr()
        code, out = run_cli(capsys, "inspect", str(run_dir))
        assert code == 0
        assert "429.mcf" in out
        assert "fig 5" in out
        assert "worst decisions" in out

    def test_replay_rejects_bad_sample_rate(self, capsys):
        code = main(["replay", "429.mcf", "--decisions", "0", *SMALL])
        captured = capsys.readouterr()
        assert code == 2
        assert "sample rate" in captured.err


#: One workload x two policies x two seeds per cache kind, so a decision
#: log holds each (workload, policy) twice.
TWO_SEED_SCENARIOS = {
    "cpu_cache": {
        "format": 1,
        "name": "two-seeds-cpu",
        "config": {"scale": 64, "trace_length": 800, "seed": 3},
        "workloads": ["450.soplex"],
        "policies": ["lru", "srrip"],
        "seeds": [3, 4],
    },
    "object_cache": {
        "format": 1,
        "kind": "object_cache",
        "name": "two-seeds-object",
        "config": {"capacity_bytes": 50_000, "requests": 500},
        "workloads": [{"name": "z1", "kind": "zipf", "objects": 100}],
        "policies": ["lru", "gdsf"],
        "seeds": [3, 4],
    },
}


class TestInspectCommand:
    def test_missing_run_is_clean_error(self, capsys):
        code = main(["inspect", "run-9999"])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert "no run directory or decision log" in captured.err

    def test_run_without_decisions_is_clean_error(self, capsys, tmp_path):
        run_dir = tmp_path / "runs" / "run-0001"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text('{"kind": "sweep"}')
        code = main(["inspect", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert "--decisions" in captured.err

    def test_filters_and_renders_profiles(self, capsys, tmp_path):
        run_root = str(tmp_path / "runs")
        run_cli(
            capsys, "sweep", "--suite", "cloudsuite",
            "--policies", "drrip", "--scale", "64", "--length", "1200",
            "--run-dir", run_root, "--decisions",
        )
        capsys.readouterr()
        run_dir = tmp_path / "runs" / "run-0001"
        code, out = run_cli(
            capsys, "inspect", str(run_dir), "--policy", "drrip",
            "--workload", "cassandra", "--top", "3",
        )
        assert code == 0
        assert "cassandra / drrip" in out
        assert "lru" not in out.splitlines()[2]  # filtered table row
        assert "fig 6" in out
        assert "fig 7" in out

    def test_unmatched_filter_is_clean_error(self, capsys, tmp_path):
        run_root = str(tmp_path / "runs")
        run_cli(
            capsys, "replay", "429.mcf", "--policy", "lru", "--decisions",
            "--run-dir", run_root, *SMALL,
        )
        capsys.readouterr()
        code = main(["inspect", str(tmp_path / "runs" / "run-0001"),
                     "--policy", "nosuchpolicy"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no decision-log cells match" in captured.err

    @pytest.mark.parametrize("kind", sorted(TWO_SEED_SCENARIOS))
    def test_multi_seed_log_names_each_cells_seed(self, capsys, tmp_path,
                                                  kind):
        import json

        scenario = TWO_SEED_SCENARIOS[kind]
        path = tmp_path / "two-seeds.json"
        path.write_text(json.dumps(scenario))
        code, sweep_out = run_cli(capsys, "sweep", "--scenario", str(path),
                                  "--decisions",
                                  "--run-dir", str(tmp_path / "runs"))
        assert code == 0
        code, out = run_cli(capsys, "inspect",
                            str(tmp_path / "runs" / "run-0001"))
        assert code == 0
        names = [workload["name"] if isinstance(workload, dict) else workload
                 for workload in scenario["workloads"]]
        cells = {(workload, policy, str(seed))
                 for workload in names
                 for policy in scenario["policies"]
                 for seed in scenario["seeds"]}
        table = out.split("\n\n")[0].splitlines()
        assert table[1].split()[:3] == ["workload", "policy", "seed"]
        rows = [tuple(line.split()[:3]) for line in table[3:]]
        assert sorted(rows) == sorted(cells)  # each cell once, seed named
        for workload, policy, seed in cells:
            assert f"{workload} / {policy} / seed {seed}" in out
        # The sweep's own regret table is built from the same rows.
        sweep_table = sweep_out[sweep_out.index("Belady regret per cell"):]
        assert table[1] in sweep_table.splitlines()


class TestTrainMetrics:
    def test_writes_training_metrics(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code, out = run_cli(
            capsys, "train", "450.soplex", "--hidden", "8",
            "--metrics", str(path), "--scale", "64", "--length", "1500",
        )
        assert code == 0
        assert "rl.epochs" in out
        assert "rl.agreement_with_opt" in out
        from repro.telemetry.export import load_metrics_json

        payload = load_metrics_json(path)
        assert payload["kind"] == "train"
        assert payload["counters"]["rl.epochs"] == 1
        assert payload["counters"]["rl.decisions"] > 0


class TestPipeHandling:
    def test_broken_pipe_exits_cleanly(self):
        import os
        import shlex
        import subprocess
        import sys
        from pathlib import Path

        # Run this checkout's package, and check Python's exit status, not
        # the one of ``head``.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        command = (f"set -o pipefail; {shlex.quote(sys.executable)} "
                   "-m repro table1 | head -2")
        result = subprocess.run(
            ["bash", "-c", command], capture_output=True, text=True,
            cwd=root, env=env,
        )
        assert result.returncode == 0
        assert "Table I" in result.stdout
        assert "Traceback" not in result.stderr


class TestScenarioCommands:
    TINY = {
        "format": 1,
        "name": "cli-tiny",
        "title": "CLI smoke scenario",
        "config": {"scale": 64, "trace_length": 500, "seed": 3},
        "workloads": [{"name": "loop", "patterns": [
            {"kind": "cyclic", "working_set": 2.0},
        ]}],
        "policies": ["lru", "srrip"],
        "golden": True,
        "expect": [{"check": "conservation"}],
    }

    @pytest.fixture
    def library(self, tmp_path):
        import json

        root = tmp_path / "scenarios"
        root.mkdir()
        (root / "cli-tiny.json").write_text(json.dumps(self.TINY))
        return root

    @staticmethod
    def run(capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out + captured.err

    def test_list_names_scenarios(self, capsys, library):
        code, out = self.run(capsys, "scenario", "list",
                            "--library", str(library))
        assert code == 0
        assert "cli-tiny" in out
        assert "CLI smoke scenario" in out

    def test_run_prints_table_and_digest(self, capsys, library, tmp_path):
        code, out = self.run(
            capsys, "sweep", "--scenario", "cli-tiny",
            "--library", str(library), "--goldens", str(tmp_path / "g"),
            "--run-dir", str(tmp_path / "runs"),
        )
        assert code == 0
        assert "report digest: " in out
        assert "expect {'check': 'conservation'}: PASS" in out
        assert "no golden recorded yet" in out  # golden: true, not blessed
        assert (tmp_path / "runs" / "run-0001" / "report.json").is_file()

    def test_bless_then_run_checks_the_golden(self, capsys, library, tmp_path):
        goldens = tmp_path / "goldens"
        code, out = self.run(
            capsys, "scenario", "bless", "--all",
            "--library", str(library), "--goldens", str(goldens),
        )
        assert code == 0
        assert (goldens / "cli-tiny.json").is_file()
        code, out = self.run(
            capsys, "sweep", "--scenario", "cli-tiny",
            "--library", str(library), "--goldens", str(goldens),
            "--run-dir", str(tmp_path / "runs"),
        )
        assert code == 0
        assert "matches the blessed digest" in out

    def test_diff_against_golden_is_clean(self, capsys, library, tmp_path):
        goldens = tmp_path / "goldens"
        self.run(capsys, "scenario", "bless", "cli-tiny",
                "--library", str(library), "--goldens", str(goldens))
        code, out = self.run(
            capsys, "scenario", "diff", "cli-tiny",
            "--library", str(library), "--goldens", str(goldens),
        )
        assert code == 0
        assert "no differences" in out

    def test_regression_renders_a_readable_diff(self, capsys, library, tmp_path):
        import json

        goldens = tmp_path / "goldens"
        self.run(capsys, "scenario", "bless", "cli-tiny",
                "--library", str(library), "--goldens", str(goldens))
        # Tamper with the blessed report: a different hit_rate must surface
        # as a per-cell metric line, not a bare digest mismatch.
        path = goldens / "cli-tiny.json"
        from repro.scenarios.golden import report_digest

        document = json.loads(path.read_text())
        document["report"]["cells"][0]["hit_rate"] += 0.25
        # Keep the golden internally consistent (digest matches the stored
        # report) — an inconsistent pair is corruption, which read_golden
        # now rejects with a typed error instead of diffing it.
        document["digest"] = report_digest(document["report"])
        path.write_text(json.dumps(document))
        code, out = self.run(
            capsys, "sweep", "--scenario", "cli-tiny",
            "--library", str(library), "--goldens", str(goldens),
            "--run-dir", str(tmp_path / "runs"),
        )
        assert code == 1
        assert "golden regression:" in out
        assert "hit_rate" in out and "loop / lru" in out

    def test_unknown_scenario_is_a_clean_error(self, capsys, library,
                                               tmp_path):
        code, out = self.run(capsys, "sweep", "--scenario", "nope",
                            "--library", str(library),
                            "--run-dir", str(tmp_path / "runs"))
        assert code == 2
        assert "error:" in out
        assert not (tmp_path / "runs").exists()

    def test_validate_kind_scenario_via_library_file(self, capsys, library):
        code, out = self.run(capsys, "validate",
                            str(library / "cli-tiny.json"))
        assert code == 0
        assert "scenario 'cli-tiny'" in out


class TestSweepScenarioFlags:
    """``repro sweep`` refuses every flag its kind of sweep would ignore,
    before any work, instead of running without it."""

    SCENARIOS = {
        "cpu_cache": {
            "format": 1,
            "name": "flags-cpu",
            "config": {"scale": 64, "trace_length": 500, "seed": 3},
            "workloads": [{"name": "loop", "patterns": [
                {"kind": "cyclic", "working_set": 2.0},
            ]}],
            "policies": ["lru", "srrip"],
        },
        "object_cache": {
            "format": 1,
            "kind": "object_cache",
            "name": "flags-object",
            "config": {"capacity_bytes": 50_000, "requests": 500},
            "workloads": [{"name": "z1", "kind": "zipf", "objects": 100}],
            "policies": ["lru", "gdsf"],
        },
    }

    #: Flags only a --suite sweep reads.
    SUITE_ONLY = [
        ("--policies", "lru"),
        ("--sanitize", "off"),
        ("--strict",),
        ("--no-strict",),
        ("--scale", "64"),
        ("--length", "100"),
        ("--seed", "3"),
    ]
    #: Flags neither kind of scenario reads.
    UNREAD = [("--suite", "cloudsuite"), ("--resume", "run-9999")] \
        + SUITE_ONLY
    OBJECT_UNREAD = [("--cache-dir", "prepared"), ("--metrics",)]
    #: --resume reads only --run-dir; the run's manifest holds the rest.
    RESUME_UNREAD = [
        ("--suite", "cloudsuite"),
        ("--jobs", "2"),
        ("--timeout", "5"),
        ("--retries", "1"),
        ("--metrics",),
        ("--decisions",),
        ("--cache-dir", "prepared"),
        ("--goldens", "goldens"),
    ] + SUITE_ONLY
    SUITE_UNREAD = [
        ("--library", "library"),
        ("--goldens", "goldens"),
        ("--no-golden-check",),
    ]

    @pytest.fixture
    def sweep(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.chdir(tmp_path)

        def run(kind, *flags):
            if kind == "resume":
                source = ["--resume", "run-0001"]
            elif kind == "suite":
                source = ["--suite", "cloudsuite"]
            else:
                path = tmp_path / f"{kind}.json"
                path.write_text(json.dumps(self.SCENARIOS[kind]))
                source = ["--scenario", str(path)]
            code = main(["sweep", *source, *flags])
            captured = capsys.readouterr()
            return code, captured.err

        return run

    @pytest.mark.parametrize(
        "kind, flags",
        [("cpu_cache", flags) for flags in UNREAD]
        + [("object_cache", flags) for flags in UNREAD + OBJECT_UNREAD]
        + [("resume", flags) for flags in RESUME_UNREAD]
        + [("suite", flags) for flags in SUITE_UNREAD],
        ids=lambda value: " ".join(value) if isinstance(value, tuple)
        else value,
    )
    def test_unread_flag_is_an_error(self, sweep, tmp_path, kind, flags):
        code, err = sweep(kind, *flags)
        assert code == 2
        assert err.startswith("error: ")
        assert flags[0] in err
        assert not (tmp_path / ".repro-runs").exists()
        assert not (tmp_path / "runs").exists()
        assert not (tmp_path / "prepared").exists()

    @pytest.mark.parametrize("flags", [("--jobs", "0"),
                                       ("--decisions", "0")])
    def test_bad_value_fails_before_the_run_directory(self, sweep, tmp_path,
                                                      flags):
        code, err = sweep("cpu_cache", *flags)
        assert code == 2
        assert err.startswith("error: ")
        assert not (tmp_path / ".repro-runs").exists()

    def test_every_unread_flag_is_named(self, sweep):
        code, err = sweep("cpu_cache", "--strict", "--resume", "run-9999",
                          "--scale", "64", "--suite", "cloudsuite",
                          "--policies", "lru", "--seed", "3")
        assert code == 2
        for flag in ("--strict", "--resume", "--scale", "--suite",
                     "--policies", "--seed"):
            assert flag in err

    def test_cpu_scenario_runs_with_the_flags_it_reads(self, sweep,
                                                       tmp_path):
        code, _ = sweep("cpu_cache", "--jobs", "1", "--cache-dir",
                        "prepared", "--decisions", "--metrics",
                        "--timeout", "60", "--retries", "1",
                        "--run-dir", "runs", "--no-golden-check")
        assert code == 0
        assert (tmp_path / "prepared").is_dir()
        run_dir = tmp_path / "runs" / "run-0001"
        for name in ("report.json", "metrics.json", "spans.jsonl",
                     "decisions.jsonl"):
            assert (run_dir / name).is_file(), name
        code, err = sweep("resume", "--run-dir", "runs")
        assert code == 0
        assert "resuming run-0001" in err

    def test_object_scenario_runs_with_the_flags_it_reads(self, sweep,
                                                          tmp_path):
        flags = ("--jobs", "1", "--decisions", "2", "--timeout", "60",
                 "--retries", "1", "--run-dir", "runs")
        code, _ = sweep("object_cache", *flags)
        assert code == 0
        assert (tmp_path / "runs" / "run-0001" / "report.json").is_file()
        assert (tmp_path / "runs" / "run-0001" / "decisions.jsonl").is_file()
        code, err = sweep("resume", "--run-dir", "runs")
        assert code == 0
        assert "resuming run-0001" in err
