"""``repro fsck``: detection, repair-vs-quarantine policy, exit codes.

The contract under test: every injected corruption is *found* (exit 1
without ``--repair``), every repair either restores re-derivable state or
quarantines the damage with the evidence preserved (exit 2), and a clean
target — or a repaired one — passes a second pass byte-untouched (exit 0).
"""

import json

import pytest

from repro.cli import main
from repro.eval.prep_cache import PrepCache
from repro.runs.journal import RunJournal
from repro.runs.supervisor import create_run
from repro.scenarios.golden import write_golden
from repro.store.fsck import (
    QUARANTINE_DIR,
    fsck_path,
    quarantine_file,
)
from repro.store.frames import write_artifact
from repro.store.manifest import ArtifactManifest


class TestQuarantine:
    def test_names_carry_the_reason(self, tmp_path):
        victim = tmp_path / "entry.pkl"
        victim.write_bytes(b"bad")
        destination = quarantine_file(
            victim, tmp_path / QUARANTINE_DIR, reason="bad_crc"
        )
        assert destination.name == "entry.pkl.bad_crc"
        assert destination.read_bytes() == b"bad"
        assert not victim.exists()

    def test_collisions_get_a_serial_suffix(self, tmp_path):
        for expected in ("entry.pkl.bad_crc", "entry.pkl.bad_crc.1",
                         "entry.pkl.bad_crc.2"):
            victim = tmp_path / "entry.pkl"
            victim.write_bytes(b"bad")
            destination = quarantine_file(
                victim, tmp_path / QUARANTINE_DIR, reason="bad_crc"
            )
            assert destination.name == expected


class TestSingleFile:
    def test_clean_framed_file_is_exit_0(self, tmp_path):
        path = tmp_path / "artifact.bin"
        write_artifact(path, "unit-test", b"payload")
        report = fsck_path(path)
        assert report.ok and report.exit_code() == 0
        assert report.checked == 1

    def test_bit_flip_is_detected_then_quarantined(self, tmp_path):
        path = tmp_path / "artifact.bin"
        write_artifact(path, "unit-test", b"payload")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))

        detected = fsck_path(path)
        assert detected.exit_code() == 1
        assert detected.findings[0].reason == "bad_crc"
        assert path.exists()  # detection never moves anything

        repaired = fsck_path(path, repair=True)
        assert repaired.exit_code() == 2
        assert repaired.findings[0].action == "quarantined"
        assert not path.exists()
        assert list((tmp_path / QUARANTINE_DIR).iterdir())


class TestRunDirectory:
    def _run(self, tmp_path):
        run = create_run(tmp_path, {"kind": "sweep"})
        run.journal().append({"type": "cell", "workload": "w", "policy": "p"})
        run.journal().append({"type": "cell", "workload": "w", "policy": "q"})
        run.write_report({"cells": [["w", "p"], ["w", "q"]]})
        run.mark("complete")
        return run

    def test_clean_run_is_exit_0(self, tmp_path):
        run = self._run(tmp_path)
        report = fsck_path(run.path)
        assert report.kind == "run"
        assert report.exit_code() == 0

    def test_torn_journal_tail_is_salvaged_and_run_marked_resumable(
        self, tmp_path
    ):
        run = self._run(tmp_path)
        with open(run.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"crc": "00000000", "entry"')  # torn mid-line

        detected = fsck_path(run.path)
        assert detected.exit_code() == 1
        assert detected.findings[0].family == "run-journal"

        repaired = fsck_path(run.path, repair=True)
        assert repaired.exit_code() == 2
        finding = [f for f in repaired.findings
                   if f.family == "run-journal"][0]
        assert finding.action == "repaired"
        # Both complete entries survived; only the torn tail was dropped.
        assert len(RunJournal(run.journal_path).entries()) == 2
        tails = list((run.path / QUARANTINE_DIR).glob("journal.jsonl.tail.*"))
        assert len(tails) == 1
        # The run is resumable again so --resume recomputes the lost cells.
        manifest = json.loads((run.path / "manifest.json").read_text())
        assert manifest["status"] == "interrupted"

    def test_stale_manifest_entry_is_rerecorded_from_verified_bytes(
        self, tmp_path
    ):
        run = self._run(tmp_path)
        # Legitimate rewrite that skipped the manifest (crash between
        # artifact write and record): the artifact self-verifies through
        # its frames, so the record is provably the stale side.
        write_artifact(run.path / "model.bin", "unit-test", b"v1")
        ArtifactManifest(run.path).record("model.bin", "framed-artifact")
        write_artifact(run.path / "model.bin", "unit-test", b"v2")

        detected = fsck_path(run.path)
        assert detected.exit_code() == 1
        assert detected.findings[0].reason == "manifest_mismatch"

        repaired = fsck_path(run.path, repair=True)
        assert repaired.exit_code() == 2
        assert repaired.findings[0].action == "repaired"
        assert fsck_path(run.path).exit_code() == 0

    def test_unverifiable_mismatch_is_never_resolved_by_rerecording(
        self, tmp_path
    ):
        run = self._run(tmp_path)
        run.metrics_path.write_text('{"counters": {"sweep.cells_ok": 2}}\n')
        run.record_artifacts()
        entries = ArtifactManifest(run.path).entries()
        recorded = entries["metrics.json"]["sha256"]
        # Bit rot in metrics.json: a plain JSON document has no self-check,
        # so the manifest digest is the only evidence the bytes are wrong.
        run.metrics_path.write_text('{"counters": {"sweep.cells_ok": 3}}\n')

        detected = fsck_path(run.path)
        assert detected.exit_code() == 1
        finding = detected.findings[0]
        assert finding.reason == "manifest_mismatch"
        # Both digests surface so the operator can decide which is stale.
        assert recorded[:12] in finding.detail

        repaired = fsck_path(run.path, repair=True)
        assert repaired.exit_code() == 1  # still detected — not "repaired"
        assert repaired.findings[0].action == "detected"
        assert "no self-check" in repaired.findings[0].detail
        # The recorded digest — the corruption evidence — is untouched.
        stored = ArtifactManifest(run.path).entries()["metrics.json"]["sha256"]
        assert stored == recorded

    def test_live_run_journal_is_never_repaired_under_the_writer(
        self, tmp_path
    ):
        run = create_run(tmp_path, {"kind": "sweep"})  # status: running
        run.journal().append({"type": "cell", "workload": "w", "policy": "p"})
        with open(run.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"crc": "00000000", "entry"')  # torn mid-line
        before = run.journal_path.read_bytes()

        repaired = fsck_path(run.path, repair=True)
        assert repaired.exit_code() == 1  # detected, deliberately unrepaired
        finding = [f for f in repaired.findings
                   if f.family == "run-journal"][0]
        assert finding.action == "detected"
        assert "running" in finding.detail
        # Neither the journal nor the live writer's status was touched.
        assert run.journal_path.read_bytes() == before
        manifest = json.loads((run.path / "manifest.json").read_text())
        assert manifest["status"] == "running"

    def test_missing_recorded_artifact_is_unrecoverable(self, tmp_path):
        run = self._run(tmp_path)
        run.report_path.unlink()
        repaired = fsck_path(run.path, repair=True)
        # Nothing can re-derive the report's bytes: stays detected, exit 1.
        assert repaired.exit_code() == 1
        assert repaired.findings[0].reason == "missing"
        assert repaired.findings[0].action == "detected"


class TestJsonlSalvage:
    def test_salvaged_prefix_round_trips_undecodable_bytes(self, tmp_path):
        # A kept line may carry raw non-UTF-8 bytes inside a JSON string
        # (surrogateescape decodes them; json accepts the lone surrogate).
        # Repair must round-trip those bytes, not die encoding strict UTF-8.
        keep = b'{"event": "span", "name": "a\xffb"}\n'
        path = tmp_path / "spans.jsonl"
        path.write_bytes(keep + b'{"event": "torn')

        report = fsck_path(path, repair=True)
        assert report.exit_code() == 2
        assert report.findings[0].action == "repaired"
        assert path.read_bytes() == keep
        tails = list((tmp_path / "quarantine").glob("spans.jsonl.tail.*"))
        assert len(tails) == 1


class TestPrepCacheDirectory:
    def test_corrupt_entry_is_a_repair_not_a_loss(self, tmp_path):
        cache = PrepCache(tmp_path / "prep")
        cache.store("k" * 64, {"not": "validated here"})
        entry = next((tmp_path / "prep").glob("*.pkl"))
        entry.write_bytes(entry.read_bytes()[:30])

        report = fsck_path(tmp_path / "prep", repair=True)
        assert report.kind == "prep-cache"
        assert report.exit_code() == 2
        assert report.findings[0].action == "repaired"
        assert "rebuilds on next access" in report.findings[0].note
        assert fsck_path(tmp_path / "prep").exit_code() == 0

    def test_legacy_bare_pickles_are_not_damage(self, tmp_path):
        cache_dir = tmp_path / "prep"
        cache_dir.mkdir()
        import pickle

        (cache_dir / "old.pkl").write_bytes(pickle.dumps({"version": 1}))
        assert fsck_path(cache_dir).exit_code() == 0


class TestGoldensDirectory:
    def test_hand_edited_golden_is_quarantined_never_rewritten(
        self, tmp_path
    ):
        write_golden("case", {"hit_rate": 0.5}, root=tmp_path)
        path = tmp_path / "case.json"
        document = json.loads(path.read_text())
        document["report"]["hit_rate"] = 0.9  # digest now stale
        path.write_text(json.dumps(document))

        detected = fsck_path(tmp_path)
        assert detected.kind == "goldens"
        assert detected.exit_code() == 1
        assert detected.findings[0].reason == "manifest_mismatch"

        repaired = fsck_path(tmp_path, repair=True)
        assert repaired.findings[0].action == "quarantined"
        assert "re-bless" in repaired.findings[0].note
        quarantined = list((tmp_path / QUARANTINE_DIR).iterdir())
        assert len(quarantined) == 1  # evidence preserved, nothing deleted


class TestCli:
    def test_exit_codes_clean_detected_repaired(self, tmp_path, capsys):
        path = tmp_path / "artifact.bin"
        write_artifact(path, "unit-test", b"payload")
        assert main(["fsck", str(path)]) == 0

        path.write_bytes(path.read_bytes()[:-2])
        assert main(["fsck", str(path)]) == 1
        assert "--repair" in capsys.readouterr().err
        assert main(["fsck", str(path), "--repair"]) == 2

    def test_corrupt_checkpoint_is_a_typed_error_not_a_traceback(
        self, tmp_path, capsys
    ):
        path = tmp_path / "train.ckpt"
        write_artifact(path, "training-checkpoint", b"not-really-weights")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        code = main(["train", "429.mcf", "--epochs", "1", "--scale", "64",
                     "--length", "800", "--checkpoint", str(path),
                     "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: checkpoint" in err
        assert "Traceback" not in err
        assert "fsck" in err

    def test_unknown_target_is_a_usage_error(self, tmp_path, capsys):
        assert main(["fsck", "no-such-run",
                     "--run-dir", str(tmp_path)]) == 3

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        run = create_run(tmp_path, {"kind": "sweep"})
        run.write_report({"cells": []})
        assert main(["fsck", run.run_id, "--run-dir", str(tmp_path),
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["kind"] == "run"
        assert document["counts"]["checked"] >= 1
