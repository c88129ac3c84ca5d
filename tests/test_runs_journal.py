"""Run-directory durability: atomic writes, the JSONL journal, manifests."""

from __future__ import annotations

import json
import os
import signal
import tempfile

import pytest

from repro.runs.atomic import atomic_write, atomic_write_text
from repro.runs.journal import RunJournal
from repro.runs.supervisor import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    create_run,
    list_runs,
    load_run,
)


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, lambda handle: handle.write(b"x" * 100))
        assert [entry.name for entry in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_write_preserves_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "original")

        def explode(handle):
            handle.write(b"partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            atomic_write(path, explode)
        assert path.read_text() == "original"
        assert [entry.name for entry in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "deep")
        assert path.read_text() == "deep"

    def test_interrupt_as_the_temporary_is_created_leaves_no_debris(
        self, tmp_path, monkeypatch
    ):
        # SIGINT arrives the moment the temporary exists, before the write
        # has a name to clean up (an interrupted sweep left such debris).
        # It is handled once the write has landed.
        class Interrupted(Exception):
            pass

        def raise_interrupted(signum, frame):
            raise Interrupted

        create = tempfile.mkstemp

        def create_then_interrupt(*args, **kwargs):
            created = create(*args, **kwargs)
            os.kill(os.getpid(), signal.SIGINT)
            return created

        monkeypatch.setattr(tempfile, "mkstemp", create_then_interrupt)
        previous = signal.signal(signal.SIGINT, raise_interrupted)
        try:
            with pytest.raises(Interrupted):
                atomic_write_text(tmp_path / "out.txt", "landed")
        finally:
            signal.signal(signal.SIGINT, previous)
        assert [entry.name for entry in tmp_path.iterdir()] == ["out.txt"]
        assert (tmp_path / "out.txt").read_text() == "landed"


class TestRunJournal:
    def test_append_then_read_back(self, tmp_path):
        journal = RunJournal(tmp_path / "journal.jsonl")
        journal.append({"type": "cell", "n": 1})
        journal.append({"type": "cell", "n": 2})
        fresh = RunJournal(tmp_path / "journal.jsonl")
        assert [entry["n"] for entry in fresh.entries()] == [1, 2]
        assert len(fresh) == 2

    def test_missing_file_is_empty(self, tmp_path):
        journal = RunJournal(tmp_path / "nope.jsonl")
        assert journal.entries() == []
        assert len(journal) == 0

    def test_torn_line_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        journal.append({"n": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"n": 2, "truncated')  # simulated torn write
        fresh = RunJournal(path)
        assert [entry["n"] for entry in fresh.entries()] == [1]

    def test_appends_survive_as_valid_jsonl(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path)
        for n in range(5):
            journal.append({"n": n, "payload": "x" * n})
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_reload_picks_up_external_appends(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        RunJournal(path).append({"n": 1})
        journal = RunJournal(path)
        assert len(journal) == 1
        RunJournal(path).append({"n": 2})
        journal.reload()
        assert len(journal) == 2


class TestRunDirectories:
    def test_sequential_ids_from_a_fresh_root(self, tmp_path):
        first = create_run(tmp_path, {"kind": "sweep"})
        second = create_run(tmp_path, {"kind": "sweep"})
        assert first.run_id == "run-0001"
        assert second.run_id == "run-0002"
        assert list_runs(tmp_path) == ["run-0001", "run-0002"]

    def test_manifest_round_trip(self, tmp_path):
        created = create_run(tmp_path, {"kind": "sweep", "args": {"jobs": 4}})
        loaded = load_run(tmp_path, created.run_id)
        assert loaded.manifest["args"] == {"jobs": 4}
        assert loaded.manifest["status"] == "running"

    def test_mark_updates_status_durably(self, tmp_path):
        run = create_run(tmp_path, {"kind": "sweep"})
        run.mark("interrupted")
        assert load_run(tmp_path, run.run_id).manifest["status"] == "interrupted"
        run.mark("complete")
        assert load_run(tmp_path, run.run_id).manifest["status"] == "complete"

    def test_unknown_run_id_names_known_runs(self, tmp_path):
        create_run(tmp_path, {"kind": "sweep"})
        with pytest.raises(ValueError, match="run-0001"):
            load_run(tmp_path, "run-9999")

    def test_journal_and_report_live_in_the_run_directory(self, tmp_path):
        run = create_run(tmp_path, {"kind": "sweep"})
        run.journal().append({"type": "cell"})
        run.write_report({"cells": []})
        names = sorted(entry.name for entry in run.path.iterdir())
        # write_report also refreshes the artifact-integrity manifest.
        assert names == sorted(
            [MANIFEST_NAME, JOURNAL_NAME, "report.json", "artifacts.json"]
        )

    def test_list_runs_on_missing_root(self, tmp_path):
        assert list_runs(tmp_path / "absent") == []
