"""The fsck chaos matrix: corruption kinds x durable artifact families.

Every cell of the matrix injects one corruption — a torn write or bit
flip through the atomic-write fault plane (site ``"atomic-write"``), or a
post-write truncation — into one of the five durable artifact families and
demands the same two-part outcome:

1. **detected** — the family's strict reader raises a typed error and/or
   ``repro fsck`` reports findings (exit != 0).  A corruption that reads
   back as valid state is a matrix failure.
2. **recovered** — ``fsck --repair`` leaves the target either clean or
   with only honestly-unrecoverable (``missing``) findings, and a no-fault
   target passes ``--repair`` with every byte untouched.

Run in CI as the ``fsck-chaos`` job (see ``docs/reliability.md``).
"""

import json

import pytest

from repro import telemetry
from repro.eval.prep_cache import PrepCache, PrepCacheCorruptionWarning
from repro.runs.checkpoint import (
    CheckpointError,
    TrainingCheckpoint,
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.runs.supervisor import create_run
from repro.scenarios.golden import read_golden, write_golden
from repro.store.errors import ArtifactCorruptionError
from repro.store.fsck import fsck_path
from repro.telemetry.decisions import read_decision_log, write_decisions_jsonl
from repro.testing.faults import FaultSpec, clear_faults, injected_faults

FAULTS = ("torn_write", "bit_flip", "truncation")


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    yield
    clear_faults()


def _write_with_fault(tmp_path, fault, write):
    """Run ``write`` with the atomic-write fault plane armed for ``fault``."""
    action = {"torn_write": "torn_write:16", "bit_flip": "bit_flip:37"}[fault]
    with injected_faults(
        [FaultSpec(site="atomic-write", action=action)],
        tmp_path / "fault-state",
    ):
        write()


def _corrupt_in_place(path, fault):
    """Direct byte surgery for post-completion rot (truncation/bit flip)."""
    data = bytearray(path.read_bytes())
    if fault == "truncation":
        path.write_bytes(bytes(data[: max(5, (len(data) * 3) // 5)]))
    elif fault == "bit_flip":
        data[37 % len(data)] ^= 0x01
        path.write_bytes(bytes(data))
    else:  # torn write: only a short prefix landed
        path.write_bytes(bytes(data[:16]))


def _assert_recovered(target):
    """fsck --repair resolves everything it can; nothing stays silent."""
    repaired = fsck_path(target, repair=True)
    assert repaired.findings, "repair pass lost track of the corruption"
    second = fsck_path(target)
    for finding in second.findings:
        assert finding.reason == "missing", (
            f"{finding.describe()} survived --repair"
        )


class TestCheckpointFamily:
    def _save(self, path):
        save_training_checkpoint(path, TrainingCheckpoint(
            epoch=2, agent_state={"weights": [0.5]},
            norm_maxima={}, fingerprint={"layout": "chaos"},
        ))

    @pytest.mark.parametrize("fault", FAULTS)
    def test_detected_and_recovered(self, tmp_path, fault):
        path = tmp_path / "checkpoint.pkl"
        if fault == "truncation":
            self._save(path)
            _corrupt_in_place(path, fault)
        else:
            _write_with_fault(tmp_path, fault, lambda: self._save(path))
        with pytest.raises(CheckpointError, match="integrity check"):
            load_training_checkpoint(path)
        assert fsck_path(path).exit_code() == 1
        _assert_recovered(path.parent)


class TestPrepCacheFamily:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_detected_and_rebuildable(self, tmp_path, fault):
        cache = PrepCache(tmp_path / "prep")
        store = lambda: cache.store("k" * 64, {"payload": True})
        if fault == "truncation":
            store()
            _corrupt_in_place(cache.path("k" * 64), fault)
        else:
            _write_with_fault(tmp_path, fault, store)
        with pytest.warns(PrepCacheCorruptionWarning):
            assert cache.load("k" * 64) is None
        assert cache.corrupt == 1
        # load() already quarantined the entry (self-healing); the
        # re-derivable family leaves nothing for fsck to flag.
        assert cache.quarantined == 1
        assert fsck_path(tmp_path / "prep").exit_code() == 0

    @pytest.mark.parametrize("fault", FAULTS)
    def test_fsck_repairs_without_a_read(self, tmp_path, fault):
        cache = PrepCache(tmp_path / "prep")
        store = lambda: cache.store("k" * 64, {"payload": True})
        if fault == "truncation":
            store()
            _corrupt_in_place(cache.path("k" * 64), fault)
        else:
            _write_with_fault(tmp_path, fault, store)
        report = fsck_path(tmp_path / "prep", repair=True)
        assert report.exit_code() == 2
        assert report.findings[0].action == "repaired"
        assert fsck_path(tmp_path / "prep").exit_code() == 0


class TestGoldenFamily:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_detected_and_quarantined(self, tmp_path, fault):
        write_golden("case", {"hit_rate": 0.875}, root=tmp_path)
        _corrupt_in_place(tmp_path / "case.json", fault)
        with pytest.raises(ArtifactCorruptionError):
            read_golden("case", root=tmp_path)
        assert fsck_path(tmp_path).exit_code() == 1
        _assert_recovered(tmp_path)


class TestRunJournalFamily:
    def _run(self, tmp_path):
        run = create_run(tmp_path / "runs", {"kind": "sweep"})
        run.journal().append({"type": "cell", "workload": "w",
                              "policy": "lru"})
        run.journal().append({"type": "cell", "workload": "w",
                              "policy": "srrip"})
        run.write_report({"cells": [["w", "lru"], ["w", "srrip"]]})
        run.mark("complete")
        return run

    @pytest.mark.parametrize("fault", FAULTS)
    def test_detected_and_recovered(self, tmp_path, fault):
        run = self._run(tmp_path)
        if fault == "torn_write":
            # The fs loses rename atomicity on the next append: only a
            # prefix of the rewritten journal lands, silently.
            _write_with_fault(
                tmp_path, fault,
                lambda: run.journal().append({"type": "cell",
                                              "workload": "w",
                                              "policy": "belady"}),
            )
        else:
            _corrupt_in_place(run.journal_path, fault)
        assert fsck_path(run.path).exit_code() == 1
        repaired = fsck_path(run.path, repair=True)
        assert repaired.exit_code() == 2
        assert fsck_path(run.path).exit_code() == 0
        # The journal is a valid (possibly shorter) prefix again and the
        # run is resumable, so --resume recomputes exactly the lost cells.
        manifest = json.loads((run.path / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"


class TestDecisionLogFamily:
    def _run(self, tmp_path, torn_write=False):
        run = create_run(tmp_path / "runs", {"kind": "sweep"})
        run.journal().append({"type": "cell"})
        write = lambda: write_decisions_jsonl(run.decisions_path, [])
        if torn_write:
            _write_with_fault(tmp_path, "torn_write", write)
        else:
            write()
        run.write_report({"cells": []})
        run.mark("complete")
        return run

    @pytest.mark.parametrize("fault", FAULTS)
    def test_detected_and_recovered(self, tmp_path, fault):
        if fault == "torn_write":
            run = self._run(tmp_path, torn_write=True)
        else:
            run = self._run(tmp_path)
            _corrupt_in_place(run.decisions_path, fault)
        # Detected at the line level, by whole-file validation, or by the
        # cross-artifact manifest digest — never read back as valid state.
        assert fsck_path(run.path).exit_code() == 1
        repaired = fsck_path(run.path, repair=True)
        assert repaired.exit_code() == 2
        assert fsck_path(run.path).exit_code() == 0


class TestSalvage:
    """Satellite contract: torn telemetry tails salvage complete leading
    frames, locate the damage, and count the loss in telemetry.salvaged."""

    def test_object_decision_log_torn_tail(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        cells = [
            {"workload": "w", "policy": "gdsf", "sample_rate": 1,
             "total": 4, "summary": {}, "size_buckets": {}, "events": []},
        ]
        write_decisions_jsonl(path, cells)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "workload"')  # torn append

        with pytest.raises(ArtifactCorruptionError) as excinfo:
            read_decision_log(path)
        assert excinfo.value.reason == "truncated"
        assert "line" in str(excinfo.value)

        registry = telemetry.MetricsRegistry()
        telemetry.configure(registry=registry)
        try:
            salvaged = read_decision_log(path, salvage=True)
        finally:
            telemetry.shutdown()
        assert [cell["policy"] for cell in salvaged] == ["gdsf"]
        assert registry.snapshot()["counters"]["telemetry.salvaged"] >= 1

    def test_cpu_decision_log_torn_tail(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        write_decisions_jsonl(path, [])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "cell", "work')

        with pytest.raises(ArtifactCorruptionError):
            read_decision_log(path)
        registry = telemetry.MetricsRegistry()
        telemetry.configure(registry=registry)
        try:
            assert read_decision_log(path, salvage=True) == []
        finally:
            telemetry.shutdown()
        assert registry.snapshot()["counters"]["telemetry.salvaged"] >= 1


class TestNoFaultByteIdentity:
    """`fsck --repair` on healthy artifacts must not move a single byte."""

    def test_clean_targets_survive_repair_untouched(self, tmp_path):
        run = create_run(tmp_path / "runs", {"kind": "sweep"})
        run.journal().append({"type": "cell", "workload": "w",
                              "policy": "lru"})
        write_decisions_jsonl(run.decisions_path, [])
        run.write_report({"cells": [["w", "lru"]]})
        run.mark("complete")

        cache = PrepCache(tmp_path / "prep")
        cache.store("k" * 64, {"payload": True})
        write_golden("case", {"hit_rate": 0.875}, root=tmp_path / "goldens")

        targets = [run.path, tmp_path / "prep", tmp_path / "goldens"]
        before = {
            path: path.read_bytes()
            for target in targets
            for path in sorted(target.rglob("*")) if path.is_file()
        }
        for target in targets:
            report = fsck_path(target, repair=True)
            assert report.exit_code() == 0, report.format()
        after = {
            path: path.read_bytes()
            for target in targets
            for path in sorted(target.rglob("*")) if path.is_file()
        }
        assert before == after
