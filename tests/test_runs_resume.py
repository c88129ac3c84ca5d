"""Journaled sweeps: resume skips finished cells, reports stay byte-identical.

Three layers of proof:

* in-process: a partially copied journal makes ``parallel_sweep`` re-run
  only the missing cells and return the same cells;
* in-process through ``repro.cli.main``: two-seed scenarios of both cache
  kinds, their journals cut short, ``--resume`` to a ``report.json``
  byte-identical to an uninterrupted run's; ``repro fsck`` catches a bit
  flip in ``report.json`` and ``--resume`` writes the same bytes back;
* subprocess (the acceptance scenario): a real ``repro sweep`` is SIGKILLed
  mid-run — after at least one cell hit the journal — and ``--resume``
  completes it to a report byte-identical to an uninterrupted baseline.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.eval.parallel as parallel_module
from repro.eval.parallel import parallel_sweep
from repro.eval.workloads import EvalConfig
from repro.runs.journal import RunJournal
from repro.testing.faults import ENV_SPECS, ENV_STATE, FaultSpec

from tests.conftest import cell_rows

WORKLOADS = ["429.mcf", "483.xalancbmk"]
POLICIES = ["lru", "srrip"]


def _config() -> EvalConfig:
    return EvalConfig(scale=64, trace_length=1500, seed=3)


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted sweep over the test grid (shared; it's pure)."""
    return parallel_sweep(_config(), WORKLOADS, POLICIES, jobs=1)


class TestJournalledSweep:
    def test_every_completed_cell_is_journaled(self, tmp_path, baseline):
        journal = RunJournal(tmp_path / "journal.jsonl")
        report = parallel_sweep(
            _config(), WORKLOADS, POLICIES, jobs=1, journal=journal
        )
        assert cell_rows(report) == cell_rows(baseline)
        entries = RunJournal(journal.path).entries()
        keys = {(entry["workload"], entry["policy"]) for entry in entries}
        assert keys == {(w, p) for w in WORKLOADS for p in POLICIES}

    def test_resume_runs_only_the_missing_cells(
        self, tmp_path, baseline, monkeypatch
    ):
        full = RunJournal(tmp_path / "full.jsonl")
        parallel_sweep(_config(), WORKLOADS, POLICIES, jobs=1, journal=full)

        # A "crashed" run: only the first two journal lines survived.
        partial_path = tmp_path / "partial.jsonl"
        lines = full.path.read_text().splitlines()[:2]
        partial_path.write_text("\n".join(lines) + "\n")
        done = {
            (entry["workload"], entry["policy"])
            for entry in RunJournal(partial_path).entries()
        }

        replayed = []
        real_replay = parallel_module._replay_task

        def counting(prepared, workload, policy, allow_bypass,
                     sanitize=None, decisions=None):
            replayed.append((workload, parallel_module._policy_name(policy)))
            return real_replay(prepared, workload, policy, allow_bypass,
                               sanitize, decisions)

        monkeypatch.setattr(parallel_module, "_replay_task", counting)
        resumed = parallel_sweep(
            _config(), WORKLOADS, POLICIES, jobs=1,
            journal=RunJournal(partial_path),
        )
        grid = {(w, p) for w in WORKLOADS for p in POLICIES}
        assert set(replayed) == grid - done  # journaled cells not re-run
        assert resumed.resumed == tuple(sorted(done))
        assert cell_rows(resumed) == cell_rows(baseline)

    def test_fully_journaled_run_recomputes_nothing(
        self, tmp_path, baseline, monkeypatch
    ):
        journal = RunJournal(tmp_path / "journal.jsonl")
        parallel_sweep(_config(), WORKLOADS, POLICIES, jobs=1, journal=journal)

        def forbidden(*args, **kwargs):
            raise AssertionError("resume of a complete run must not compute")

        monkeypatch.setattr(parallel_module, "_replay_task", forbidden)
        monkeypatch.setattr(parallel_module, "prepare_workload", forbidden)
        resumed = parallel_sweep(
            _config(), WORKLOADS, POLICIES, jobs=1,
            journal=RunJournal(journal.path),
        )
        assert cell_rows(resumed) == cell_rows(baseline)

    def test_unrecognized_journal_entries_are_recomputed(
        self, tmp_path, baseline
    ):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"type": "cell", "workload": WORKLOADS[0],
                        "policy": POLICIES[0], "result": {"bogus": 1}})
            + "\n" + json.dumps({"type": "note"}) + "\n"
        )
        resumed = parallel_sweep(
            _config(), WORKLOADS, POLICIES, jobs=1, journal=RunJournal(path)
        )
        assert resumed.resumed == ()  # nothing adoptable
        assert cell_rows(resumed) == cell_rows(baseline)

    def test_pooled_resume_is_also_byte_identical(self, tmp_path, baseline):
        full = RunJournal(tmp_path / "full.jsonl")
        parallel_sweep(_config(), WORKLOADS, POLICIES, jobs=1, journal=full)
        partial_path = tmp_path / "partial.jsonl"
        partial_path.write_text(full.path.read_text().splitlines()[0] + "\n")
        resumed = parallel_sweep(
            _config(), WORKLOADS, POLICIES, jobs=2,
            journal=RunJournal(partial_path),
        )
        assert len(resumed.resumed) == 1
        assert cell_rows(resumed) == cell_rows(baseline)


# -- scenario sweeps through the CLI: cut the journal, then --resume ---------

SCENARIOS = {
    "cpu_cache": {
        "format": 1,
        "name": "resume-cpu",
        "config": {"scale": 64, "trace_length": 500, "seed": 3},
        "workloads": ["429.mcf", {"name": "loop", "patterns": [
            {"kind": "cyclic", "working_set": 2.0},
        ]}],
        "policies": ["lru", "srrip"],
        "seeds": [3, 4],
        # Regret rides in the report; the journal must carry it too.
        "expect": [{"check": "regret", "max": 1.0}],
    },
    "object_cache": {
        "format": 1,
        "kind": "object_cache",
        "name": "resume-object",
        "config": {"capacity_bytes": 50_000, "requests": 500},
        "workloads": [{"name": "z1", "kind": "zipf", "objects": 100},
                      {"name": "z2", "kind": "zipf", "objects": 300}],
        "policies": ["lru", "gdsf"],
        "seeds": [3, 4],
        "expect": [{"check": "regret", "max": 1.0}],
    },
}
CELLS = 8  # 2 workloads x 2 policies x 2 seeds


def _sweep_scenario(tmp_path, kind, run_root) -> Path:
    from repro.cli import main

    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(SCENARIOS[kind]))
    assert main(["sweep", "--scenario", str(path),
                 "--run-dir", str(run_root)]) == 0
    return run_root / "run-0001"


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
@pytest.mark.parametrize("keep", [1, 5])
def test_cut_journal_resumes_to_the_same_report(tmp_path, capsys, kind,
                                                keep):
    from repro.cli import main

    baseline = _sweep_scenario(tmp_path, kind, tmp_path / "baseline")
    run = _sweep_scenario(tmp_path, kind, tmp_path / "runs")
    lines = (run / "journal.jsonl").read_text().splitlines()
    assert keep < len(lines) == CELLS
    (run / "journal.jsonl").write_text("\n".join(lines[:keep]) + "\n")
    (run / "report.json").unlink()

    assert main(["sweep", "--run-dir", str(tmp_path / "runs"),
                 "--resume", "run-0001"]) == 0
    assert "resuming run-0001 (%d journal entries)" % keep in \
        capsys.readouterr().err
    assert (run / "report.json").read_bytes() == \
        (baseline / "report.json").read_bytes()
    report = json.loads((run / "report.json").read_text())["report"]
    assert all("regret" in cell for cell in report["cells"])
    # The journal is back-filled to the full grid, with no duplicates.
    keys = [(entry["tag"], entry["workload"], entry["policy"])
            for entry in RunJournal(run / "journal.jsonl").entries()]
    assert len(keys) == len(set(keys)) == CELLS


def test_bit_flip_in_report_is_caught_and_resume_rewrites_it(tmp_path):
    from repro.cli import main

    run = _sweep_scenario(tmp_path, "cpu_cache", tmp_path / "runs")
    report = run / "report.json"
    original = report.read_bytes()
    data = bytearray(original)
    digit = original.index(b'"hit_rate": 0.') + len(b'"hit_rate": 0.')
    data[digit] ^= 0x01  # still a digit: the document still parses
    report.write_bytes(bytes(data))

    assert main(["fsck", str(run)]) == 1
    assert main(["fsck", str(run), "--repair"]) == 2
    assert not report.exists()
    assert [entry.name for entry in (run / "quarantine").iterdir()]
    assert main(["sweep", "--run-dir", str(tmp_path / "runs"),
                 "--resume", "run-0001"]) == 0
    assert report.read_bytes() == original
    assert main(["fsck", str(run)]) == 0


def test_resume_needs_a_scenario_in_the_manifest(tmp_path, capsys):
    from repro.cli import main
    from repro.runs.supervisor import create_run

    create_run(tmp_path, {"kind": "sweep", "args": {"suite": "cloudsuite"}})
    code = main(["sweep", "--run-dir", str(tmp_path), "--resume",
                 "run-0001"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


# -- the acceptance scenario: SIGKILL a real sweep, then --resume -------------


def _sweep_env(faults=None, state_dir=None) -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env.pop(ENV_SPECS, None)
    env.pop(ENV_STATE, None)
    if faults is not None:
        env[ENV_SPECS] = json.dumps([spec.to_dict() for spec in faults])
        env[ENV_STATE] = str(state_dir)
    return env


def _sweep_command(run_root, resume=None) -> list:
    command = [sys.executable, "-m", "repro", "sweep",
               "--run-dir", str(run_root)]
    if resume:
        return command + ["--resume", resume]  # the manifest holds the rest
    return command + [
        "--suite", "cloudsuite", "--policies", "lru", "srrip",
        "--scale", "64", "--length", "1000", "--jobs", "2",
    ]


def _wait_for_journal(path: Path, minimum: int, timeout: float = 240.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.is_file():
            count = len(
                [line for line in path.read_text().splitlines() if line.strip()]
            )
            if count >= minimum:
                return count
        time.sleep(0.2)
    raise AssertionError(f"journal never reached {minimum} entries")


@pytest.mark.slow
class TestKillAndResume:
    def test_sigkill_then_resume_matches_uninterrupted_baseline(self, tmp_path):
        # A hang fault keeps the sweep from finishing before we kill it:
        # the 3rd replay (globally) sleeps far past the test horizon.
        faults = [FaultSpec(site="replay", action="hang", after=2,
                            hang_seconds=600.0)]
        run_root = tmp_path / "runs"
        process = subprocess.Popen(
            _sweep_command(run_root),
            env=_sweep_env(faults, tmp_path / "fault-state"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            journal_path = run_root / "run-0001" / "journal.jsonl"
            killed_with = _wait_for_journal(journal_path, minimum=1)
            os.killpg(process.pid, signal.SIGKILL)
        finally:
            process.wait(timeout=30)
            if process.returncode is None:
                os.killpg(process.pid, signal.SIGKILL)
        assert killed_with >= 1  # died after at least one completed cell

        # The journal survived the SIGKILL as valid JSONL.
        survivors = RunJournal(journal_path).entries()
        assert len(survivors) == killed_with
        keys = [(entry["workload"], entry["policy"]) for entry in survivors]
        assert len(keys) == len(set(keys))  # no duplicates

        # Resume (faults cleared) completes only the unfinished cells ...
        resumed = subprocess.run(
            _sweep_command(run_root, resume="run-0001"),
            env=_sweep_env(), capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr[-2000:]
        assert "served from the journal" in resumed.stderr

        final = RunJournal(journal_path).entries()
        final_keys = [(entry["workload"], entry["policy"]) for entry in final]
        assert len(final_keys) == len(set(final_keys))  # still no duplicates
        assert set(keys) <= set(final_keys)  # survivors were adopted, not redone

        # ... and the report is byte-identical to an uninterrupted run.
        pristine = subprocess.run(
            _sweep_command(tmp_path / "runs2"),
            env=_sweep_env(), capture_output=True, text=True, timeout=600,
        )
        assert pristine.returncode == 0, pristine.stderr[-2000:]
        interrupted_report = (
            run_root / "run-0001" / "report.json"
        ).read_bytes()
        baseline_report = (
            tmp_path / "runs2" / "run-0001" / "report.json"
        ).read_bytes()
        assert interrupted_report == baseline_report

        # The interrupted run's directory holds no torn temp files.
        leftovers = [
            entry.name
            for entry in (run_root / "run-0001").iterdir()
            if ".tmp" in entry.name
        ]
        assert leftovers == []
