"""Atomic, durable file writes (the crash-safety primitive).

Every persistent artifact in the fault-tolerance layer — run journals,
manifests, training checkpoints, prepared-workload cache entries, saved
agents, framed :mod:`repro.store` artifacts — goes through
:func:`atomic_write`: the content is written to a temporary file in the
*same directory* as the target, flushed and fsynced, and then
:func:`os.replace`\\ d over the target.  A crash (including SIGKILL)
at any point leaves either the complete old file or the complete new file,
never a truncated hybrid; stray ``*.tmp`` files from an interrupted write
are cleaned up on the next successful write of the same target.  SIGINT
and SIGTERM are deferred for the duration of a write
(:func:`repro.runs.interrupts.interrupts_deferred`), so an interrupt is
handled once the write has landed or removed its temporary, never between
the temporary's creation and the cleanup that owns it.

This is also the storage layer's fault-injection plane (site
``"atomic-write"``): :func:`repro.testing.faults.maybe_fault` can arm

* ``torn_write:<n>`` — simulate a filesystem without rename atomicity:
  only the first ``n`` bytes of the new content land in the target, and
  the caller is *not* told (silent corruption, for fsck to catch);
* ``bit_flip:<offset>`` — complete the write, then flip one bit of the
  final file (deterministic bit rot);
* ``crash_at_byte:<n>`` — die (raise
  :class:`~repro.testing.faults.SimulatedCrash`) after ``n`` bytes of the
  temp file are written — before the rename when ``n`` is short of the
  content (old file survives, temp debris remains), after it otherwise
  (new file fully landed).

The faulted path buffers the content in memory first; the no-fault path
is byte-for-byte the original streaming write.
"""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path

from repro.runs.interrupts import interrupts_deferred
from repro.testing.faults import (
    BYTE_FAULT_ACTIONS,
    SimulatedCrash,
    maybe_fault,
    parse_action,
)


def atomic_write(path, writer, text: bool = False) -> None:
    """Write a file atomically: temp file + flush + fsync + rename.

    ``writer`` is called with the open temporary file handle (binary by
    default, text when ``text=True``).  If it raises, the temporary file is
    removed and the target is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    action = maybe_fault("atomic-write", path=str(path))
    if action is not None:
        kind, value = parse_action(action)
        if kind in BYTE_FAULT_ACTIONS:
            _faulted_write(path, writer, text, kind, value)
            return
    with interrupts_deferred():
        fd, temporary = tempfile.mkstemp(
            dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w" if text else "wb") as handle:
                writer(handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, path)
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
    _sweep_stale_temporaries(path)


def _sweep_stale_temporaries(path: Path) -> None:
    """Remove ``<name>.*.tmp`` debris an interrupted earlier write left.

    Runs only after a successful replace, so every surviving sibling that
    matches the pattern is an orphan from a crash (mkstemp always picks a
    fresh name; our own temporary was just renamed away).  Best-effort: a
    racing unlink or permission error must never fail the write itself.
    """
    prefix = f"{path.name}."
    try:
        for debris in path.parent.iterdir():
            if debris.name.startswith(prefix) and debris.name.endswith(".tmp"):
                try:
                    debris.unlink()
                except OSError:
                    pass
    except OSError:
        pass


def _faulted_write(path: Path, writer, text: bool, kind: str, value: int) -> None:
    """Apply one armed byte-fault action to this write (see module doc)."""
    buffer = io.StringIO() if text else io.BytesIO()
    writer(buffer)
    data = buffer.getvalue()
    if text:
        data = data.encode("utf-8")

    if kind == "torn_write":
        # The n-byte prefix lands in the target; the caller learns nothing.
        with open(path, "wb") as handle:
            handle.write(data[: value])
        return

    if kind == "bit_flip":
        with open(path, "wb") as handle:
            handle.write(data)
        if data:
            position = value % len(data)
            with open(path, "r+b") as handle:
                handle.seek(position)
                byte = handle.read(1)[0]
                handle.seek(position)
                handle.write(bytes([byte ^ 0x01]))
        return

    # crash_at_byte: die mid-temp-write (old file survives, debris stays)
    # or just after the rename (new file fully landed).
    fd, temporary = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
    )
    with os.fdopen(fd, "wb") as handle:
        handle.write(data[: value])
        handle.flush()
        os.fsync(handle.fileno())
    if value >= len(data):
        os.replace(temporary, path)
    raise SimulatedCrash(
        f"simulated crash after byte {value} of atomic write to {path}"
    )


def atomic_write_bytes(path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    atomic_write(path, lambda handle: handle.write(data))


def atomic_write_text(path, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    atomic_write_bytes(path, text.encode("utf-8"))