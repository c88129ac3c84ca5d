"""Per-directory artifact manifests (``artifacts.json``).

A manifest records, for every durable artifact under one run directory,
its byte length and SHA-256 digest plus the artifact family that wrote
it.  It is the cross-artifact integrity anchor: an individual file can
self-verify through its frames or per-line checksums, but only the
manifest can say *"metrics.json no longer holds the bytes the run
produced"* or *"the decision log this run recorded is missing"*.

Updates are atomic JSON rewrites (the manifest is small).  A crash
between writing an artifact and recording it leaves a *stale* manifest —
``repro fsck`` treats an artifact whose content self-verifies but whose
manifest entry is absent or outdated as re-derivable damage (the manifest
is rebuilt from the verified files), while an artifact that fails its own
checks is the real casualty.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

ARTIFACTS_NAME = "artifacts.json"

MANIFEST_FORMAT = "repro-artifact-manifest"
MANIFEST_VERSION = 1


def file_digest(path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(chunk)
    return hasher.hexdigest()


class ArtifactManifest:
    """The ``artifacts.json`` ledger of one directory's durable artifacts."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.path = self.directory / ARTIFACTS_NAME
        self._entries = None  # lazy: {relname: {"bytes", "sha256", "family"}}

    # -- persistence -------------------------------------------------------

    def entries(self) -> dict:
        if self._entries is None:
            self._entries = self._load()
        return self._entries

    def _load(self) -> dict:
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {}
        except ValueError as error:
            from repro.store.errors import ArtifactCorruptionError

            raise ArtifactCorruptionError(
                f"{self.path}: manifest does not parse ({error})",
                reason="bad_payload",
                path=self.path,
            ) from None
        if (
            not isinstance(document, dict)
            or document.get("format") != MANIFEST_FORMAT
        ):
            from repro.store.errors import ArtifactCorruptionError

            raise ArtifactCorruptionError(
                f"{self.path}: not an artifact manifest",
                reason="bad_payload",
                path=self.path,
            )
        return {
            str(name): dict(entry)
            for name, entry in document.get("artifacts", {}).items()
        }

    def _save(self) -> None:
        from repro.runs.atomic import atomic_write_text

        document = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "artifacts": {
                name: self._entries[name] for name in sorted(self._entries)
            },
        }
        atomic_write_text(
            self.path, json.dumps(document, indent=1, sort_keys=True) + "\n"
        )

    # -- recording ---------------------------------------------------------

    def record(self, relname: str, family: str) -> dict:
        """Hash the artifact on disk and durably record it; returns the entry."""
        target = self.directory / relname
        entry = {
            "bytes": target.stat().st_size,
            "sha256": file_digest(target),
            "family": str(family),
        }
        entries = self.entries()
        entries[str(relname)] = entry
        self._save()
        return entry

    def forget(self, relname: str) -> None:
        """Drop an artifact from the ledger (quarantine bookkeeping)."""
        entries = self.entries()
        if entries.pop(str(relname), None) is not None:
            self._save()

    # -- verification ------------------------------------------------------

    def exists(self) -> bool:
        return self.path.is_file()

    def verify(self, relname: str) -> Optional[str]:
        """Check one artifact against its record.

        Returns ``None`` when the artifact matches (or is not recorded),
        else the corruption reason (``missing`` / ``manifest_mismatch``).
        """
        entry = self.entries().get(str(relname))
        if entry is None:
            return None
        target = self.directory / relname
        if not target.is_file():
            return "missing"
        if (
            target.stat().st_size != entry.get("bytes")
            or file_digest(target) != entry.get("sha256")
        ):
            return "manifest_mismatch"
        return None
