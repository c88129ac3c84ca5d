"""SIGINT during a parallel sweep: clean flush, clean exit, no orphans.

For both cache kinds (a CPU suite sweep and an object-cache scenario
sweep), runs a real ``repro sweep`` subprocess with an injected hang (so the sweep
cannot finish on its own), interrupts **only the parent** with SIGINT once
at least one cell has been journaled, and asserts the contract:

* the parent exits with code 130 and marks the run ``interrupted``;
* the journal on disk is valid JSONL (flushed, never torn);
* no ``*.tmp`` files linger in the run directory;
* no worker process survives the parent (checked by scanning ``/proc`` for
  a marker environment variable unique to this test run).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

import repro
from repro.runs.journal import RunJournal
from repro.runs.supervisor import load_run
from repro.testing.faults import ENV_SPECS, ENV_STATE, FaultSpec

MARKER_VARIABLE = "REPRO_TEST_SIGINT_MARKER"


def _marked_processes(marker: str) -> list:
    """PIDs of live processes carrying the marker environment variable."""
    needle = f"{MARKER_VARIABLE}={marker}".encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            environ = (entry / "environ").read_bytes()
        except OSError:
            continue
        if needle in environ:
            found.append(int(entry.name))
    return found


def _wait_for_journal(path: Path, timeout: float = 240.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.is_file() and any(
            line.strip() for line in path.read_text().splitlines()
        ):
            return
        time.sleep(0.2)
    raise AssertionError("journal never received an entry")


#: A small object-cache scenario: 2 workloads x 2 policies = 4 cells.
OBJECT_SCENARIO = {
    "kind": "object_cache",
    "name": "sigint-objcache",
    "config": {"capacity_bytes": 50_000, "requests": 2000},
    "workloads": [
        {"name": "z1", "kind": "zipf", "objects": 200},
        {"name": "z2", "kind": "zipf", "objects": 300},
    ],
    "policies": ["lru", "gdsf"],
}


def _interrupt_sweep(tmp_path, site: str, sweep_args: list) -> None:
    """Run ``repro sweep`` whose 3rd cell (fault ``site``) hangs, SIGINT the
    parent once a cell is journaled, and check the interrupt contract."""
    marker = uuid.uuid4().hex
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env[MARKER_VARIABLE] = marker
    # The 3rd replay hangs forever: the sweep cannot finish by itself.
    env[ENV_SPECS] = json.dumps([
        FaultSpec(site=site, action="hang", after=2,
                  hang_seconds=600.0).to_dict()
    ])
    env[ENV_STATE] = str(tmp_path / "fault-state")

    run_root = tmp_path / "runs"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", *sweep_args,
         "--jobs", "2", "--run-dir", str(run_root)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        journal_path = run_root / "run-0001" / "journal.jsonl"
        _wait_for_journal(journal_path)
        os.kill(process.pid, signal.SIGINT)  # the parent, and only it
        _, stderr = process.communicate(timeout=120)
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        raise

    assert process.returncode == 130, stderr[-2000:]
    assert "resume with" in stderr

    # The run was durably marked interrupted, with a flushed journal.
    run = load_run(run_root, "run-0001")
    assert run.manifest["status"] == "interrupted"
    entries = RunJournal(journal_path).entries()
    assert entries  # at least the cell we waited for
    for line in journal_path.read_text().splitlines():
        if line.strip():
            json.loads(line)  # every surviving line is valid JSON

    # No torn temp files anywhere in the run directory.
    leftovers = [
        entry.name
        for entry in (run_root / "run-0001").iterdir()
        if ".tmp" in entry.name
    ]
    assert leftovers == []

    # No orphaned workers: every process that inherited our marker —
    # including the hung one — died with (or before) the parent.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and _marked_processes(marker):
        time.sleep(0.2)
    assert _marked_processes(marker) == []


@pytest.mark.slow
class TestSigintDuringSweep:
    def test_sigint_flushes_journal_and_reaps_workers(self, tmp_path):
        _interrupt_sweep(tmp_path, "replay", [
            "--suite", "cloudsuite", "--policies", "lru", "srrip",
            "--scale", "64", "--length", "1000",
        ])

    def test_object_sweep_sigint_flushes_journal_and_reaps_workers(
        self, tmp_path
    ):
        scenario = tmp_path / "sigint-objcache.json"
        scenario.write_text(json.dumps(OBJECT_SCENARIO))
        _interrupt_sweep(tmp_path, "object-replay",
                         ["--scenario", str(scenario)])
