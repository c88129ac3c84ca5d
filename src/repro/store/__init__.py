"""Unified durable-artifact layer: checksummed frames, manifests, fsck.

Every artifact family the system persists — run journals, training
checkpoints, prepared-workload cache entries, decision logs, golden
reports — used to carry its own ad-hoc notion of
"is this file damaged?".  This package is the one storage substrate they
all share:

* :mod:`repro.store.frames` — length-prefixed, CRC-checksummed,
  version-tagged binary frames with a per-file family tag.  A truncated,
  torn, or bit-flipped artifact is *detected* (typed
  :class:`ArtifactCorruptionError` naming the reason and byte offset),
  never silently misread.
* :mod:`repro.store.manifest` — a per-directory artifact manifest
  (``artifacts.json``) recording size + SHA-256 per artifact, enabling
  cross-artifact consistency checks (a report that no longer matches the
  digest recorded when the run completed is bit rot, not a behaviour
  change).
* :mod:`repro.store.fsck` — the ``repro fsck`` engine: detects
  truncation, torn writes, bit flips, and manifest mismatches across all
  artifact families; repairs what is re-derivable (truncate journals to
  the last valid entry, drop rebuildable cache entries) and quarantines
  what is not — nothing is ever deleted silently.

Corruption taxonomy (the ``reason`` field of
:class:`ArtifactCorruptionError` and of fsck findings):

=================== ==========================================================
``truncated``       file ends mid-frame (torn write or partial flush)
``bad_crc``         a frame's checksum does not match its payload (bit rot)
``bad_magic``       the file does not start with the expected magic
``bad_version``     the container version is newer than this reader
``bad_family``      the file is a valid container of the *wrong* family
``bad_payload``     frames are intact but the decoded payload is malformed
``manifest_mismatch`` an artifact's bytes differ from the manifest record
``missing``         the manifest names an artifact that is not on disk
=================== ==========================================================

See ``docs/reliability.md`` ("Artifact integrity & fsck") for the
operational guide, repair-vs-quarantine decision table, and exit codes.
"""

from repro.store.errors import ArtifactCorruptionError, CORRUPTION_REASONS
from repro.store.frames import (
    FILE_MAGIC,
    FrameDamage,
    FrameScan,
    encode_framed,
    is_framed,
    read_artifact,
    read_framed,
    scan_frames,
    write_artifact,
    write_framed,
)
from repro.store.manifest import ARTIFACTS_NAME, ArtifactManifest
from repro.store.fsck import Finding, FsckReport, fsck_path, quarantine_file

__all__ = [
    "ARTIFACTS_NAME",
    "ArtifactCorruptionError",
    "ArtifactManifest",
    "CORRUPTION_REASONS",
    "FILE_MAGIC",
    "Finding",
    "FrameDamage",
    "FrameScan",
    "FsckReport",
    "encode_framed",
    "fsck_path",
    "is_framed",
    "quarantine_file",
    "read_artifact",
    "read_framed",
    "scan_frames",
    "write_artifact",
    "write_framed",
]
