"""Golden-report regression: canonical digests pinned under ``tests/goldens/``.

A *golden* is the canonical JSON report of one scenario plus its SHA-256
digest, checked into the repository.  The regression suite re-runs each
golden scenario and compares digests; on mismatch it renders a readable
per-cell diff (policy, workload, which metric moved and by how much)
instead of a bare assertion failure.  ``repro scenario bless`` re-records
goldens after an intentional behaviour change.

Canonical JSON is ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
over plain ints/floats/strings — float ``repr`` is deterministic in Python 3,
so equal reports serialize to equal bytes on every platform and job count.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

ENV_GOLDEN_DIR = "REPRO_GOLDEN_DIR"


def canonical_json(payload) -> str:
    """The canonical (byte-stable) JSON serialization of a report payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def report_digest(payload) -> str:
    """SHA-256 hex digest of the canonical serialization."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def default_golden_dir() -> Path:
    """Where goldens live: ``REPRO_GOLDEN_DIR`` or ``tests/goldens/``."""
    configured = os.environ.get(ENV_GOLDEN_DIR)
    if configured:
        return Path(configured)
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


def golden_path(name: str, root=None) -> Path:
    root = Path(root) if root is not None else default_golden_dir()
    return root / f"{name}.json"


def read_golden(name: str, root=None, verify: bool = True):
    """The stored golden document ``{"digest", "report"}``, or ``None``.

    ``verify=True`` (the default) re-derives the digest of the *stored*
    report and demands it match the *stored* digest — a golden whose two
    halves disagree (bit rot, a hand edit of one half) is corruption, not
    a legitimate regression, and raises a typed
    :class:`~repro.store.errors.ArtifactCorruptionError` instead of
    producing a misleading scenario diff.
    """
    from repro.store.errors import ArtifactCorruptionError

    path = golden_path(name, root)
    if not path.is_file():
        return None
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as error:
        raise ArtifactCorruptionError(
            f"golden {path} does not parse: {error}",
            reason="bad_payload",
            path=path,
        ) from error
    if verify and isinstance(document, dict):
        stored = document.get("digest")
        actual = report_digest(document.get("report", {}))
        if stored != actual:
            raise ArtifactCorruptionError(
                f"golden {path} failed its integrity check: stored digest "
                f"{str(stored)[:12]}... does not match the stored report "
                f"({actual[:12]}...) — bit rot or a hand edit; re-bless or "
                f"restore from version control",
                reason="manifest_mismatch",
                path=path,
            )
    return document


def write_report_document(path, payload) -> Path:
    """Atomically write ``{"digest", "report"}`` for a report payload.

    Goldens and run reports (``report.json``) share this one format, which
    :func:`read_golden` and ``repro fsck`` verify against its own digest.
    """
    from repro.runs.atomic import atomic_write_text

    path = Path(path)
    document = {"digest": report_digest(payload), "report": payload}
    atomic_write_text(path, json.dumps(document, sort_keys=True, indent=1)
                      + "\n")
    return path


def write_golden(name: str, payload: dict, root=None) -> Path:
    """Record (bless) a scenario report as the new golden."""
    return write_report_document(golden_path(name, root), payload)


# -- readable report diffs -----------------------------------------------------

#: Cell metrics compared (and reported) when a golden digest moves.  CPU
#: cells carry the first three, object-cache cells the last two; a metric
#: absent from both sides of a diff is skipped.
_DIFF_METRICS = ("hit_rate", "demand_hit_rate", "demand_mpki",
                 "byte_hit_rate", "object_hit_rate")


def _cell_key(cell) -> tuple:
    return (cell["workload"], cell["policy"], cell.get("seed", 0))


def _describe(key: tuple) -> str:
    workload, policy, seed = key
    return f"{workload} / {policy} (seed {seed})"


def diff_reports(old: dict, new: dict) -> list:
    """Human-readable differences between two report payloads.

    Returns a list of lines; empty means the reports are equivalent (their
    canonical serializations would also be byte-identical).
    """
    lines = []
    if canonical_json(old.get("scenario")) != canonical_json(new.get("scenario")):
        lines.append(
            "scenario definition changed (config/workloads/policies differ "
            "from the blessed golden)"
        )
    old_cells = {_cell_key(cell): cell for cell in old.get("cells", ())}
    new_cells = {_cell_key(cell): cell for cell in new.get("cells", ())}
    for key in sorted(old_cells.keys() - new_cells.keys()):
        lines.append(f"cell removed: {_describe(key)}")
    for key in sorted(new_cells.keys() - old_cells.keys()):
        lines.append(f"cell added: {_describe(key)}")
    for key in sorted(old_cells.keys() & new_cells.keys()):
        lines.extend(_diff_cell(old_cells[key], new_cells[key], key))
    old_expect = {canonical_json(e) for e in old.get("expectations", ())}
    new_expect = [e for e in new.get("expectations", ())
                  if canonical_json(e) not in old_expect]
    for row in new_expect:
        lines.append(
            f"expectation changed: {json.dumps(row['expect'])} is now "
            f"{row['status']}"
            + (f" ({'; '.join(row['failures'])})" if row["failures"] else "")
        )
    if not lines and canonical_json(old) != canonical_json(new):
        lines.append(
            "reports differ outside tracked fields (compare the canonical "
            "JSON directly)"
        )
    return lines


def _diff_cell(old: dict, new: dict, key: tuple) -> list:
    lines = []
    for metric in _DIFF_METRICS:
        before, after = old.get(metric), new.get(metric)
        if before != after:
            lines.append(
                f"{_describe(key)}: {metric} {before:.6f} -> {after:.6f} "
                f"({after - before:+.6f})"
            )
    if old.get("ipc") != new.get("ipc"):
        before = ", ".join(f"{v:.4f}" for v in old.get("ipc", ()))
        after = ", ".join(f"{v:.4f}" for v in new.get("ipc", ()))
        lines.append(f"{_describe(key)}: ipc [{before}] -> [{after}]")
    old_stats, new_stats = old.get("stats", {}), new.get("stats", {})
    for counter in sorted(set(old_stats) | set(new_stats)):
        before, after = old_stats.get(counter), new_stats.get(counter)
        if before != after:
            lines.append(
                f"{_describe(key)}: {counter} {before} -> {after} "
                f"({after - before:+d})"
            )
    if old.get("violations") != new.get("violations"):
        lines.append(
            f"{_describe(key)}: sanitizer violations "
            f"{old.get('violations', [])} -> {new.get('violations', [])}"
        )
    if old.get("regret") != new.get("regret"):
        lines.append(
            f"{_describe(key)}: regret summary {old.get('regret')} -> "
            f"{new.get('regret')}"
        )
    if old.get("status") != new.get("status"):
        lines.append(
            f"{_describe(key)}: status {old.get('status')} -> "
            f"{new.get('status')}"
        )
    return lines


def compare_to_golden(name: str, payload: dict, root=None):
    """Compare a fresh report against the stored golden.

    Returns ``None`` when no golden exists, ``[]`` on a match, else the
    readable diff lines.
    """
    stored = read_golden(name, root)
    if stored is None:
        return None
    if stored.get("digest") == report_digest(payload):
        return []
    lines = diff_reports(stored.get("report", {}), payload)
    return lines or ["digest mismatch but no tracked field differs"]
