"""``repro fsck``: detect, repair, and quarantine damaged durable state.

The engine walks one *target* — a run directory, a prep-cache directory, a
goldens directory, or a single artifact file — and applies each artifact
family's integrity checks:

========================= ==================================================
artifact                  check
========================= ==================================================
``journal.jsonl``         per-line CRC envelopes (:mod:`repro.runs.journal`)
framed files              frame scan (:mod:`repro.store.frames`): magic,
(checkpoints, prep-cache  per-frame CRC, family tag, truncation
entries)
JSONL logs                line-by-line parse + format-specific validation
(``decisions.jsonl``,     (:func:`repro.telemetry.decisions.
``spans.jsonl``)          validate_decision_log` et al.)
golden documents          stored digest vs recomputed digest of the stored
                          report (:mod:`repro.scenarios.golden`)
``artifacts.json``        cross-artifact manifest: every recorded artifact
                          must exist and hash to its recorded digest
========================= ==================================================

Repair policy (``repair=True``), per the reliability contract:

* **re-derivable state is repaired in place** — a damaged journal is
  truncated to its last valid entry (the clipped tail is quarantined, the
  run is marked resumable so ``--resume`` recomputes the lost cells;
  skipped while the run's status is still ``running`` — never rewrite a
  journal underneath its live writer); a stale manifest entry for an
  artifact that *genuinely self-verifies* (frames, CRC journals, validated
  logs, goldens) is re-recorded — a mismatch on a file with no self-check
  (plain JSON such as ``metrics.json``) stays *detected*, because the
  manifest digest is the only evidence of the corruption; a corrupt prep-cache
  entry is quarantined (the ordinary miss path rebuilds it on next
  access);
* **everything else is quarantined** — moved under ``quarantine/`` with a
  reason suffix, never deleted, so no repair can destroy evidence;
* **nothing is silently dropped** — every action lands in the
  :class:`FsckReport` as a :class:`Finding`.

Exit codes (``repro fsck``): 0 = clean; 1 = corruption detected and still
present (run again with ``--repair``, or the damage is unrecoverable);
2 = corruption was found and every instance was repaired or quarantined.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.store.errors import ArtifactCorruptionError
from repro.store.frames import is_framed, scan_frames
from repro.store.manifest import ARTIFACTS_NAME, ArtifactManifest, file_digest

#: Quarantine subdirectory name (shared with the prep cache).
QUARANTINE_DIR = "quarantine"

#: Families whose damage is repairable by rebuilding (quarantine == repair).
REBUILDABLE_FAMILIES = ("prep-cache",)

#: :func:`_check_file` verdicts.  ``VERIFIED`` means the file passed a
#: genuine self-check (frame CRCs, per-line journal checksums, JSONL parse
#: + format validation, a golden's internal digest) — strong enough that a
#: manifest digest disagreeing with the file means the *manifest* is stale.
#: ``UNVERIFIED`` means fsck had nothing to check the content against
#: (plain JSON documents such as ``metrics.json``): the manifest digest is
#: the sole integrity anchor for such files, so a mismatch is never
#: auto-resolved.
VERIFIED = "verified"
UNVERIFIED = "unverified"
DAMAGED = "damaged"


# -- findings & report ---------------------------------------------------------


@dataclass
class Finding:
    """One integrity problem and what fsck did about it."""

    artifact: str  #: path (relative to the target when possible)
    family: str  #: artifact family ("run-journal", "prep-cache", ...)
    reason: str  #: corruption reason (CORRUPTION_REASONS vocabulary)
    detail: str  #: located human-readable description
    action: str = "detected"  #: "detected" | "repaired" | "quarantined"
    note: str = ""  #: what the repair/quarantine did

    def describe(self) -> str:
        line = f"{self.artifact} [{self.family}] {self.reason}: {self.detail}"
        if self.action != "detected":
            line += f" -> {self.action}"
            if self.note:
                line += f" ({self.note})"
        return line


@dataclass
class FsckReport:
    """Everything one fsck pass saw and did."""

    target: str
    kind: str  #: "run" | "prep-cache" | "goldens" | "file" | "directory"
    repair: bool
    checked: int = 0  #: artifacts that passed every check
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def unresolved(self) -> list:
        return [f for f in self.findings if f.action == "detected"]

    def exit_code(self) -> int:
        if self.ok:
            return 0
        return 1 if self.unresolved else 2

    def counts(self) -> dict:
        counts = {"checked": self.checked, "detected": 0, "repaired": 0,
                  "quarantined": 0}
        for finding in self.findings:
            counts[finding.action] += 1
        return counts

    def format(self) -> str:
        counts = self.counts()
        lines = [f"fsck {self.kind} {self.target}:"]
        for finding in self.findings:
            lines.append(f"  {finding.describe()}")
        summary = (
            f"  {counts['checked']} artifact(s) clean, "
            f"{counts['repaired']} repaired, "
            f"{counts['quarantined']} quarantined, "
            f"{counts['detected']} unresolved"
        )
        lines.append(summary if self.findings else
                     f"  {counts['checked']} artifact(s) clean")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "kind": self.kind,
            "repair": self.repair,
            "ok": self.ok,
            "exit_code": self.exit_code(),
            "counts": self.counts(),
            "findings": [vars(finding) for finding in self.findings],
        }


# -- quarantine ----------------------------------------------------------------


def quarantine_file(path, quarantine_dir, reason: str = "corrupt") -> Path:
    """Move ``path`` into ``quarantine_dir`` with a collision-safe name."""
    path = Path(path)
    quarantine_dir = Path(quarantine_dir)
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    base = f"{path.name}.{reason}"
    destination = quarantine_dir / base
    serial = 0
    while destination.exists():
        serial += 1
        destination = quarantine_dir / f"{base}.{serial}"
    shutil.move(str(path), str(destination))
    return destination


def quarantine_bytes(data: bytes, quarantine_dir, name: str,
                     reason: str = "corrupt") -> Path:
    """Preserve clipped content (e.g. a truncated journal tail) as a file."""
    quarantine_dir = Path(quarantine_dir)
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    base = f"{name}.{reason}"
    destination = quarantine_dir / base
    serial = 0
    while destination.exists():
        serial += 1
        destination = quarantine_dir / f"{base}.{serial}"
    destination.write_bytes(data)
    return destination


# -- target detection ----------------------------------------------------------


def _run_manifest(directory: Path) -> Optional[dict]:
    """The supervisor manifest of a run directory, or None."""
    path = directory / "manifest.json"
    if not path.is_file():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return None
    if isinstance(manifest, dict) and "status" in manifest:
        return manifest
    return None


def _is_golden_doc(path: Path) -> bool:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return False
    return isinstance(document, dict) and {"digest", "report"} <= set(document)


def _looks_like_prep_cache(directory: Path) -> bool:
    for entry in directory.glob("*.pkl"):
        if entry.is_file():
            return True
    return False


def fsck_path(target, repair: bool = False) -> FsckReport:
    """Run fsck over ``target`` (auto-detects what kind of thing it is)."""
    target = Path(target)
    if target.is_file():
        report = FsckReport(str(target), "file", repair)
        _check_file(target, target.parent, report)
        return report
    if not target.is_dir():
        raise FileNotFoundError(f"no artifact or directory at {target}")
    if _run_manifest(target) is not None:
        return fsck_run_dir(target, repair=repair)
    if _looks_like_prep_cache(target):
        return fsck_prep_cache_dir(target, repair=repair)
    goldens = [p for p in sorted(target.glob("*.json")) if _is_golden_doc(p)]
    if goldens:
        return fsck_goldens_dir(target, repair=repair)
    # Plain directory: check every file we recognise.
    report = FsckReport(str(target), "directory", repair)
    for entry in sorted(target.iterdir()):
        if entry.is_file():
            _check_file(entry, target, report)
        elif entry.is_dir() and _run_manifest(entry) is not None:
            nested = fsck_run_dir(entry, repair=repair)
            report.checked += nested.checked
            report.findings.extend(nested.findings)
    return report


# -- per-family checks ---------------------------------------------------------


def _check_framed_file(path: Path, root: Path, report: FsckReport,
                       family_hint: str = "") -> bool:
    """Verify one frame-container file; returns True when clean."""
    data = path.read_bytes()
    scan = scan_frames(data)
    relname = _rel(path, root)
    family = scan.family or family_hint or "framed-artifact"
    if scan.ok:
        report.checked += 1
        return True
    first = scan.damage[0]
    finding = Finding(relname, family, first.reason, first.describe())
    if report.repair:
        rebuildable = family in REBUILDABLE_FAMILIES
        destination = quarantine_file(
            path, root / QUARANTINE_DIR, reason=first.reason
        )
        finding.action = "repaired" if rebuildable else "quarantined"
        finding.note = (
            f"moved to {_rel(destination, root)}"
            + ("; entry rebuilds on next access" if rebuildable else
               "; content is not re-derivable")
        )
    report.findings.append(finding)
    return False


def _check_journal(path: Path, root: Path, report: FsckReport,
                   run_manifest_path: Optional[Path] = None) -> bool:
    """Verify (and optionally repair) a run journal; True when clean."""
    from repro.runs.journal import RunJournal

    journal = RunJournal(path)
    scan = journal.scan()
    if scan.ok:
        report.checked += 1
        return True
    lineno, problem = scan.damage[0]
    reason = "bad_crc" if "checksum" in problem else "truncated"
    finding = Finding(
        _rel(path, root), "run-journal", reason,
        f"line {lineno}: {problem}"
        + (f" (+{len(scan.damage) - 1} more damaged line(s))"
           if len(scan.damage) > 1 else ""),
    )
    if report.repair:
        if _run_status(run_manifest_path) == "running":
            # A live writer owns this journal: truncating it (or flipping
            # the run's status) underneath the writer would corrupt more
            # than it repairs.  Leave the finding detected.
            finding.detail += (
                "; run status is 'running', so repair was skipped — "
                "re-run fsck --repair once the run stops"
            )
            report.findings.append(finding)
            return False
        raw = path.read_text(encoding="utf-8").splitlines()
        clipped = [line for line in raw if line.strip()][scan.valid_prefix_lines:]
        destination = quarantine_bytes(
            ("\n".join(clipped) + "\n").encode("utf-8"),
            root / QUARANTINE_DIR, path.name + ".tail", reason=reason,
        )
        dropped = journal.truncate_to_valid_prefix()
        resumable = _mark_run_resumable(run_manifest_path)
        finding.action = "repaired"
        finding.note = (
            f"truncated to last valid entry (dropped {dropped} line(s), "
            f"tail preserved at {_rel(destination, root)}"
            + ("; run marked resumable" if resumable else "")
            + ")"
        )
    report.findings.append(finding)
    return False


def _run_status(manifest_path: Optional[Path]) -> Optional[str]:
    """The run manifest's ``status`` field, or None when unreadable."""
    if manifest_path is None or not manifest_path.is_file():
        return None
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError:
        return None
    status = manifest.get("status") if isinstance(manifest, dict) else None
    return status if isinstance(status, str) else None


def _mark_run_resumable(manifest_path: Optional[Path]) -> bool:
    """Flip a completed run back to interrupted so --resume recomputes."""
    if manifest_path is None or not manifest_path.is_file():
        return False
    from repro.runs.atomic import atomic_write_text

    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError:
        return False
    if manifest.get("status") == "interrupted":
        return True
    if manifest.get("status") == "running":
        # Never rewrite a live run's manifest underneath its writer.
        return False
    manifest["status"] = "interrupted"
    atomic_write_text(
        manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return True


def _check_jsonl_log(path: Path, root: Path, report: FsckReport,
                     family: str, validate=None) -> bool:
    """Line-level integrity of an append-style JSONL log; True when clean.

    ``validate`` (optional) runs a format-specific whole-file validation
    once the line level is clean (e.g.
    :func:`repro.telemetry.decisions.validate_decision_log`).
    """
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    lines = text.splitlines()
    damaged = None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            json.loads(line)
        except ValueError:
            damaged = number
            break
    if damaged is None:
        if validate is not None:
            problems = validate(path)
            if problems:
                finding = Finding(
                    _rel(path, root), family, "bad_payload",
                    f"{len(problems)} validation problem(s); first: "
                    f"{problems[0]}",
                )
                if report.repair:
                    destination = quarantine_file(
                        path, root / QUARANTINE_DIR, reason="bad_payload"
                    )
                    finding.action = "quarantined"
                    finding.note = f"moved to {_rel(destination, root)}"
                report.findings.append(finding)
                return False
        report.checked += 1
        return True
    tail_is_last = damaged == len(lines)
    reason = "truncated" if tail_is_last else "bad_payload"
    finding = Finding(
        _rel(path, root), family, reason,
        f"line {damaged} does not parse"
        + (" (torn tail)" if tail_is_last else ""),
    )
    if report.repair:
        keep = lines[: damaged - 1]
        if not keep:
            # Nothing salvageable: quarantine the whole file rather than
            # leave an empty (and format-invalid) log behind.
            destination = quarantine_file(
                path, root / QUARANTINE_DIR, reason=reason
            )
            finding.action = "quarantined"
            finding.note = f"no salvageable lines; moved to " \
                           f"{_rel(destination, root)}"
            report.findings.append(finding)
            return False
        clipped = "\n".join(lines[damaged - 1:])
        destination = quarantine_bytes(
            clipped.encode("utf-8", errors="surrogateescape"),
            root / QUARANTINE_DIR, path.name + ".tail", reason=reason,
        )
        from repro.runs.atomic import atomic_write_bytes

        # surrogateescape round-trips any undecodable bytes the salvaged
        # lines carried (a kept line may hold them inside a JSON string).
        atomic_write_bytes(
            path,
            ("\n".join(keep) + "\n").encode("utf-8", errors="surrogateescape"),
        )
        finding.action = "repaired"
        finding.note = (
            f"salvaged {len(keep)} leading line(s), tail preserved at "
            f"{_rel(destination, root)}"
        )
        if validate is not None:
            still_bad = validate(path)
            if still_bad:
                # The salvaged prefix does not stand alone as a valid
                # log: quarantine it too (evidence, not an empty husk).
                remainder = quarantine_file(
                    path, root / QUARANTINE_DIR, reason="bad_payload"
                )
                finding.action = "quarantined"
                finding.note += (
                    f"; salvaged prefix failed validation "
                    f"({still_bad[0]}) and was moved to "
                    f"{_rel(remainder, root)}"
                )
    report.findings.append(finding)
    return False


def _check_golden(path: Path, root: Path, report: FsckReport) -> bool:
    """Verify one golden document's internal digest; True when clean."""
    from repro.scenarios.golden import report_digest

    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        finding = Finding(
            _rel(path, root), "golden", "bad_payload",
            f"does not parse: {error}",
        )
    else:
        stored = document.get("digest")
        actual = report_digest(document.get("report", {}))
        if stored == actual:
            report.checked += 1
            return True
        finding = Finding(
            _rel(path, root), "golden", "manifest_mismatch",
            f"stored digest {str(stored)[:12]}... does not match the stored "
            f"report ({actual[:12]}...) — bit rot or a hand edit",
        )
    if report.repair:
        destination = quarantine_file(
            path, root / QUARANTINE_DIR, reason=finding.reason
        )
        finding.action = "quarantined"
        finding.note = (
            f"moved to {_rel(destination, root)}; re-bless from a trusted "
            f"run (goldens are source-controlled — check git)"
        )
    report.findings.append(finding)
    return False


def _rel(path: Path, root: Path) -> str:
    try:
        return str(Path(path).relative_to(root))
    except ValueError:
        return str(path)


def _check_file(path: Path, root: Path, report: FsckReport) -> str:
    """Dispatch one file to its family's check.

    Returns :data:`DAMAGED` when a finding was recorded, :data:`VERIFIED`
    when the file passed a genuine self-check, and :data:`UNVERIFIED` when
    there was nothing to verify the content against (the manifest digest
    is the only integrity anchor for such files).
    """
    name = path.name
    if name == ARTIFACTS_NAME or name == "manifest.json":
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except ValueError as error:
            finding = Finding(
                _rel(path, root), "manifest", "bad_payload",
                f"does not parse: {error}",
            )
            if report.repair:
                destination = quarantine_file(
                    path, root / QUARANTINE_DIR, reason="bad_payload"
                )
                finding.action = "quarantined"
                finding.note = f"moved to {_rel(destination, root)}"
            report.findings.append(finding)
            return DAMAGED
        report.checked += 1
        return UNVERIFIED
    head = b""
    try:
        with open(path, "rb") as handle:
            head = handle.read(4)
    except OSError:
        pass
    if is_framed(head):
        clean = _check_framed_file(path, root, report)
        return VERIFIED if clean else DAMAGED
    if name == "journal.jsonl":
        clean = _check_journal(path, root, report,
                               run_manifest_path=root / "manifest.json")
        return VERIFIED if clean else DAMAGED
    if name.endswith(".jsonl"):
        validate = None
        if name.startswith("decisions"):
            from repro.telemetry.decisions import validate_decision_log

            validate = validate_decision_log
        clean = _check_jsonl_log(
            path, root, report,
            family="decision-log" if name.startswith("decisions") else "spans",
            validate=validate,
        )
        return VERIFIED if clean else DAMAGED
    if path.suffix == ".json":
        if _is_golden_doc(path):
            clean = _check_golden(path, root, report)
            return VERIFIED if clean else DAMAGED
        # Any other .json artifact (bench snapshots, torn goldens) must at
        # least parse — a torn write leaves an unparseable prefix.  Parsing
        # is not verification: bit rot can still parse as JSON.
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            finding = Finding(
                _rel(path, root), "json-document", "bad_payload",
                f"does not parse: {error}",
            )
            if report.repair:
                destination = quarantine_file(
                    path, root / QUARANTINE_DIR, reason="bad_payload"
                )
                finding.action = "quarantined"
                finding.note = f"moved to {_rel(destination, root)}"
            report.findings.append(finding)
            return DAMAGED
        report.checked += 1
        return UNVERIFIED
    # Unrecognised file: nothing to verify beyond the manifest cross-check.
    return UNVERIFIED


# -- directory-level passes ----------------------------------------------------


def fsck_run_dir(directory, repair: bool = False) -> FsckReport:
    """Integrity pass over one run directory (journal, logs, manifest)."""
    directory = Path(directory)
    report = FsckReport(str(directory), "run", repair)
    handled = set()
    verified = set()
    for entry in sorted(directory.iterdir()):
        if not entry.is_file():
            continue
        verdict = _check_file(entry, directory, report)
        if verdict == DAMAGED:
            handled.add(entry.name)
        elif verdict == VERIFIED:
            verified.add(entry.name)
    # Cross-artifact manifest pass: every recorded artifact must exist and
    # hash to its recorded digest.  Files repaired or quarantined above get
    # their manifest entry refreshed instead of double-reported; a file
    # whose damage was only *detected* (repair declined or skipped) keeps
    # its manifest entry untouched — it is evidence.
    acted = {f.artifact for f in report.findings if f.action != "detected"}
    manifest = ArtifactManifest(directory)
    if manifest.exists():
        try:
            entries = dict(manifest.entries())
        except ArtifactCorruptionError:
            entries = {}
        for relname, entry in sorted(entries.items()):
            if relname in handled:
                if repair and relname in acted:
                    target = directory / relname
                    if target.is_file():
                        manifest.record(relname, entry.get("family", "?"))
                    else:
                        manifest.forget(relname)
                continue
            problem = manifest.verify(relname)
            if problem is None:
                continue
            detail = "recorded in the artifact manifest but "
            if problem == "missing":
                detail += "missing from disk"
            else:
                recorded = str(entry.get("sha256", "?"))
                detail += (
                    f"its bytes no longer match the recorded digest "
                    f"(recorded sha256 {recorded[:12]}..., on disk "
                    f"{file_digest(directory / relname)[:12]}...)"
                )
            finding = Finding(relname, entry.get("family", "?"), problem,
                              detail)
            if repair and problem == "manifest_mismatch":
                if relname in verified:
                    # The file passed a genuine self-check above, so the
                    # manifest record is the stale side: re-record it.
                    manifest.record(relname, entry.get("family", "?"))
                    finding.action = "repaired"
                    finding.note = ("manifest digest re-recorded from the "
                                    "verified artifact")
                else:
                    # No self-check exists for this file (plain JSON such
                    # as metrics.json): the manifest digest is its *only*
                    # integrity anchor, so re-recording would erase the
                    # sole evidence of the corruption.  Stays detected; both digests are
                    # preserved above for the operator to decide.
                    finding.detail += (
                        "; the file has no self-check, so fsck cannot tell "
                        "which side is stale — restore the artifact from a "
                        "trusted copy or regenerate it (e.g. --resume)"
                    )
            report.findings.append(finding)
    return report


def fsck_prep_cache_dir(directory, repair: bool = False) -> FsckReport:
    """Integrity pass over a prepared-workload cache directory."""
    directory = Path(directory)
    report = FsckReport(str(directory), "prep-cache", repair)
    for entry in sorted(directory.glob("*.pkl")):
        head = b""
        try:
            with open(entry, "rb") as handle:
                head = handle.read(4)
        except OSError:
            continue
        if not is_framed(head):
            # Pre-integrity-layer entry: a stale silent miss, not damage.
            continue
        _check_framed_file(entry, directory, report, family_hint="prep-cache")
    return report


def fsck_goldens_dir(directory, repair: bool = False) -> FsckReport:
    """Integrity pass over a golden-report directory."""
    directory = Path(directory)
    report = FsckReport(str(directory), "goldens", repair)
    for entry in sorted(directory.glob("*.json")):
        _check_golden(entry, directory, report)
    return report
