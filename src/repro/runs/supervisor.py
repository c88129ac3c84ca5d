"""Run directories: durable state for resumable long-running commands.

A *run* is one invocation of a long-running entry point (``repro sweep``,
``repro replay --decisions``).  Its directory holds
everything needed to resume after a crash:

.. code-block:: text

    <root>/<run-id>/
        manifest.json   # the scenario, the run's options + status (atomic
                        # JSON)
        journal.jsonl   # completed cells (repro.runs.journal.RunJournal)
        report.json     # the canonical report payload and its digest
                        # (written on completion; self-verifying, like a
                        # golden — see repro.scenarios.golden)
        metrics.json    # telemetry payload (with --metrics; see
                        # docs/observability.md)
        spans.jsonl     # span trace events (with --metrics)
        decisions.jsonl # per-eviction decision log (with --decisions;
                        # rendered by `repro inspect` — see
                        # repro.telemetry.decisions)
        artifacts.json  # cross-artifact integrity manifest (size + sha256
                        # per artifact; verified by `repro fsck`)

Run ids are allocated sequentially (``run-0001``, ``run-0002``, ...) with a
collision-safe exclusive ``mkdir``, so a freshly created root always starts
at ``run-0001`` — convenient for scripts and CI.  A sweep's manifest
records its whole scenario, so ``--resume <run-id>`` rebuilds the exact
same grid (identical config, workloads, policies and seeds) and produces a
byte-identical report.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.runs.atomic import atomic_write_text
from repro.runs.journal import RunJournal
from repro.store.manifest import ArtifactManifest

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"
REPORT_NAME = "report.json"
METRICS_NAME = "metrics.json"
SPANS_NAME = "spans.jsonl"
DECISIONS_NAME = "decisions.jsonl"

#: artifact name -> integrity family recorded in ``artifacts.json``.
ARTIFACT_FAMILIES = {
    JOURNAL_NAME: "run-journal",
    REPORT_NAME: "report",
    METRICS_NAME: "metrics",
    SPANS_NAME: "spans",
    DECISIONS_NAME: "decision-log",
}


class SweepInterrupted(RuntimeError):
    """A journaled sweep was stopped by SIGINT/SIGTERM after a clean flush.

    Raised *after* worker processes have been reaped and every completed
    cell has been journaled, so the run can be resumed with ``--resume``.
    """

    def __init__(self, message: str, completed: int = 0) -> None:
        super().__init__(message)
        self.completed = completed  #: cells finished before the interrupt


class RunDirectory:
    """Handle on one run's on-disk state."""

    def __init__(self, path, manifest: dict) -> None:
        self.path = Path(path)
        self.manifest = manifest

    @property
    def run_id(self) -> str:
        return self.path.name

    @property
    def journal_path(self) -> Path:
        return self.path / JOURNAL_NAME

    @property
    def report_path(self) -> Path:
        return self.path / REPORT_NAME

    @property
    def metrics_path(self) -> Path:
        return self.path / METRICS_NAME

    @property
    def spans_path(self) -> Path:
        return self.path / SPANS_NAME

    @property
    def decisions_path(self) -> Path:
        return self.path / DECISIONS_NAME

    def journal(self) -> RunJournal:
        return RunJournal(self.journal_path)

    def _save_manifest(self) -> None:
        atomic_write_text(
            self.path / MANIFEST_NAME,
            json.dumps(self.manifest, indent=2, sort_keys=True) + "\n",
        )

    def mark(self, status: str) -> None:
        """Durably update the run's status (running/interrupted/complete)."""
        self.manifest["status"] = status
        self._save_manifest()
        if status in ("complete", "interrupted", "failed"):
            self.record_artifacts()

    def write_report(self, payload) -> None:
        """Atomically persist the final report document next to the journal.

        The document is ``{"digest", "report"}``, written by the writer the
        goldens use, so ``repro fsck`` verifies it against its own digest.
        """
        from repro.scenarios.golden import write_report_document

        write_report_document(self.report_path, payload)
        self.record_artifacts()

    def artifact_manifest(self) -> ArtifactManifest:
        return ArtifactManifest(self.path)

    def record_artifacts(self) -> None:
        """Refresh ``artifacts.json`` for every known artifact on disk.

        Best-effort: a full disk or permission error must not fail the run
        — integrity recording guards against *silent* corruption, it is
        not itself load-bearing for the sweep.
        """
        try:
            manifest = self.artifact_manifest()
            for name, family in sorted(ARTIFACT_FAMILIES.items()):
                if (self.path / name).is_file():
                    manifest.record(name, family)
        except OSError:
            pass


def create_run(root, manifest: dict) -> RunDirectory:
    """Allocate the next run directory under ``root`` and persist a manifest."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for attempt in range(1, 10_000):
        path = root / f"run-{attempt:04d}"
        try:
            path.mkdir()
        except FileExistsError:
            continue
        run = RunDirectory(path, dict(manifest))
        run.manifest.setdefault("status", "running")
        run._save_manifest()
        return run
    raise RuntimeError(f"run directory space exhausted under {root}")


def load_run(root, run_id: str) -> RunDirectory:
    """Open an existing run (for ``--resume``)."""
    path = Path(root) / run_id
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        known = ", ".join(list_runs(root)) or "none"
        raise ValueError(
            f"no run {run_id!r} under {root} (known runs: {known})"
        )
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return RunDirectory(path, manifest)


def list_runs(root) -> list:
    """Run ids under ``root``, oldest first."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(
        entry.name
        for entry in root.iterdir()
        if entry.is_dir() and (entry / MANIFEST_NAME).is_file()
    )
