"""Bench history (``BENCH_history.jsonl``) and the regression gate.

The history is an append-only JSONL log of every completed bench payload,
CRC-enveloped line by line via :class:`repro.runs.journal.RunJournal` — the
same framing the run journals use, so a torn write or bit flip damages one
line, is located by ``repro fsck``/``repro validate``, and never takes the
tail of the history with it (tail-salvage: damaged lines are skipped and
counted, valid entries before and after still load).

The gate (:func:`compare`) is deliberately simple and reproducible:

* rates are already **min-noise** (best-of-N inside the bench), so the
  comparison needs no statistics beyond a relative threshold;
* thresholds are **per bench family** (:data:`FAMILY_THRESHOLDS`) because
  a one-epoch training run is noisier than a 20k-access replay;
* the **overhead** family gates on its absolute ``ok`` budget flags, not
  on baseline deltas — a budget bust is a regression even on day one;
* a bench or rate key missing from the baseline is ``new``, never a
  failure (otherwise adding a bench would break the gate that protects
  it).

On a regression the report names the *phase* that grew the most
(per-access ns from the phase split), so "replay/rlr got 30% slower"
arrives as "victim_scoring grew +45%", which is an actionable lead
instead of a number.  Phases are compared only between payloads of the
same schema: schema 2 timed them with in-loop timing proxies, schema 3 by
differencing unprofiled runs, and the two methods do not measure the same
thing.  A schema-3 phase record also carries the digest of the simulated
result; when a key's digest changed, the report notes that its rate now
times a different simulation (a note, not a failure).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.runs.journal import RunJournal

DEFAULT_HISTORY_NAME = "BENCH_history.jsonl"

#: Relative rate-drop tolerated per bench family before the gate fails.
#: Generous by design: CI machines have noisy neighbours, and a gate that
#: cries wolf gets deleted.  ``None`` = the family is gated on absolute
#: budget checks instead of relative rates.
FAMILY_THRESHOLDS = {
    "replay": 0.25,
    "objcache": 0.25,
    "train": 0.30,
    "overhead": None,
}
DEFAULT_THRESHOLD = 0.30


def append_history(path, payload: dict) -> None:
    """Durably append one bench payload to the history log."""
    RunJournal(path).append({
        "type": "bench",
        "name": payload.get("bench"),
        "payload": payload,
    })


def load_history(path):
    """All valid bench payloads plus located damage.

    Returns ``(payloads, damage)`` where ``damage`` is the journal's
    ``(line_number, problem)`` list — damaged lines are skipped, never
    fatal (``repro fsck`` repairs them).
    """
    scan = RunJournal(path).scan()
    payloads = [
        entry["payload"]
        for entry in scan.entries
        if entry.get("type") == "bench"
        and isinstance(entry.get("payload"), dict)
    ]
    return payloads, scan.damage


def latest_per_bench(payloads) -> dict:
    """The most recent payload per bench name (append order wins)."""
    latest = {}
    for payload in payloads:
        name = payload.get("bench")
        if name:
            latest[name] = payload
    return latest


def resolve_baseline(target):
    """Load a comparison baseline from a history log, dir, or snapshot.

    ``target`` may be a ``.jsonl`` history (latest payload per bench), a
    directory holding committed ``BENCH_*.json`` snapshots, or one
    snapshot file.  Returns ``({bench: payload}, notes)``.
    """
    target = Path(target)
    notes = []
    if target.is_dir():
        baseline = {}
        for path in sorted(target.glob("BENCH_*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as error:
                notes.append(f"skipped unparseable {path.name}: {error}")
                continue
            if isinstance(payload, dict) and payload.get("bench"):
                baseline[payload["bench"]] = payload
        if not baseline:
            notes.append(f"no BENCH_*.json snapshots under {target}")
        return baseline, notes
    if not target.is_file():
        raise FileNotFoundError(f"no baseline at {target}")
    if target.suffix == ".jsonl":
        payloads, damage = load_history(target)
        if damage:
            notes.append(
                f"baseline history has {len(damage)} damaged line(s) "
                f"(skipped; run `repro fsck` to repair): "
                + ", ".join(f"line {number}" for number, _ in damage[:5])
            )
        if not payloads:
            notes.append(f"baseline history {target} holds no bench entries")
        return latest_per_bench(payloads), notes
    payload = json.loads(target.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or not payload.get("bench"):
        raise ValueError(f"{target} is not a bench payload")
    return {payload["bench"]: payload}, notes


# -- comparison ----------------------------------------------------------------


@dataclass
class CompareRow:
    """One gated quantity: a rate key or an overhead check."""

    bench: str
    key: str
    current: float
    baseline: float = None  #: None when the key is new
    delta_pct: float = None
    threshold_pct: float = None
    status: str = "ok"  #: ok | improved | new | regression


@dataclass
class PhaseDelta:
    """Per-access phase growth between baseline and current."""

    bench: str
    key: str
    phase: str
    baseline_ns: float
    current_ns: float
    delta_pct: float


@dataclass
class CompareReport:
    rows: list = field(default_factory=list)
    phase_deltas: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def regressions(self) -> list:
        return [row for row in self.rows if row.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def worst_phase(self, bench: str, key: str):
        """The fastest-growing phase for one (bench, key), or ``None``."""
        candidates = [
            delta for delta in self.phase_deltas
            if delta.bench == bench and delta.key == key
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda delta: delta.delta_pct)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "rows": [vars(row) for row in self.rows],
            "phase_deltas": [vars(delta) for delta in self.phase_deltas],
            "notes": list(self.notes),
        }

    def format(self) -> str:
        lines = []
        widths = (10, 22, 14, 14, 8, 6, 10)
        header = ("bench", "key", "baseline", "current", "delta%", "thr%",
                  "status")
        lines.append("  ".join(
            str(col).ljust(width) for col, width in zip(header, widths)
        ).rstrip())
        for row in self.rows:
            cells = (
                row.bench,
                row.key,
                "-" if row.baseline is None else f"{row.baseline:.1f}",
                f"{row.current:.1f}",
                "-" if row.delta_pct is None else f"{row.delta_pct:+.1f}",
                "-" if row.threshold_pct is None
                else f"{row.threshold_pct:.0f}",
                row.status,
            )
            lines.append("  ".join(
                str(col).ljust(width) for col, width in zip(cells, widths)
            ).rstrip())
        for row in self.regressions:
            blame = self.worst_phase(row.bench, row.key)
            detail = (
                f"  REGRESSION {row.bench}/{row.key}: "
                + (
                    f"{-row.delta_pct:.1f}% below baseline "
                    f"(threshold {row.threshold_pct:.0f}%)"
                    if row.delta_pct is not None
                    else "budget check failed"
                )
            )
            if blame is not None and blame.delta_pct > 0:
                detail += (
                    f"; slowest-growing phase: {blame.phase} "
                    f"({blame.delta_pct:+.1f}%, {blame.baseline_ns:.1f} -> "
                    f"{blame.current_ns:.1f} ns/access)"
                )
            lines.append(detail)
        regressed = {(row.bench, row.key) for row in self.regressions}
        shown = [
            delta for delta in self.phase_deltas
            if (delta.bench, delta.key) in regressed
        ]
        if shown:
            lines.append("")
            lines.append("per-phase deltas (ns/access) for regressed benches:")
            phase_widths = (10, 22, 20, 12, 12, 8)
            phase_header = ("bench", "key", "phase", "baseline", "current",
                            "delta%")
            lines.append("  ".join(
                str(col).ljust(width)
                for col, width in zip(phase_header, phase_widths)
            ).rstrip())
            for delta in shown:
                cells = (
                    delta.bench, delta.key, delta.phase,
                    f"{delta.baseline_ns:.1f}", f"{delta.current_ns:.1f}",
                    f"{delta.delta_pct:+.1f}",
                )
                lines.append("  ".join(
                    str(col).ljust(width)
                    for col, width in zip(cells, phase_widths)
                ).rstrip())
        for note in self.notes:
            lines.append(f"  note: {note}")
        verdict = "PASS" if self.ok else (
            f"FAIL: {len(self.regressions)} regression(s)"
        )
        lines.append(verdict)
        return "\n".join(lines)


def _phase_deltas(bench: str, key: str, baseline_phases: dict,
                  current_phases: dict) -> list:
    deltas = []
    base = (baseline_phases or {}).get(key, {}).get("phases", {})
    curr = (current_phases or {}).get(key, {}).get("phases", {})
    for phase in sorted(set(base) & set(curr)):
        baseline_ns = float(base[phase].get("per_access_ns", 0.0))
        current_ns = float(curr[phase].get("per_access_ns", 0.0))
        if baseline_ns <= 0.0 and current_ns <= 0.0:
            continue
        delta_pct = (
            (current_ns - baseline_ns) / baseline_ns * 100.0
            if baseline_ns > 0 else float("inf")
        )
        deltas.append(PhaseDelta(bench, key, phase, baseline_ns, current_ns,
                                 delta_pct))
    return deltas


def compare(current: dict, baseline: dict,
            tolerance: float = None) -> CompareReport:
    """Gate ``current`` bench payloads against ``baseline`` ones.

    ``current`` and ``baseline`` map bench name -> payload.  ``tolerance``
    (a fraction, e.g. ``0.5`` = 50%) overrides every family threshold —
    the CI knob for generous noise bounds.
    """
    report = CompareReport()
    for bench in sorted(current):
        payload = current[bench]
        base_payload = baseline.get(bench)
        threshold = (
            tolerance if tolerance is not None
            else FAMILY_THRESHOLDS.get(bench, DEFAULT_THRESHOLD)
        )
        for key in sorted(payload.get("rates", {})):
            rate = float(payload["rates"][key])
            base_rates = (base_payload or {}).get("rates", {})
            if key not in base_rates:
                report.rows.append(CompareRow(bench, key, rate, status="new"))
                continue
            base_rate = float(base_rates[key])
            delta_pct = (
                (rate - base_rate) / base_rate * 100.0 if base_rate > 0
                else 0.0
            )
            effective = DEFAULT_THRESHOLD if threshold is None else threshold
            if base_rate > 0 and rate < base_rate * (1.0 - effective):
                status = "regression"
            elif base_rate > 0 and rate > base_rate * (1.0 + effective):
                status = "improved"
            else:
                status = "ok"
            report.rows.append(CompareRow(
                bench, key, rate, baseline=base_rate, delta_pct=delta_pct,
                threshold_pct=effective * 100.0, status=status,
            ))
            if base_payload is None:
                continue
            if base_payload.get("schema") == payload.get("schema"):
                report.phase_deltas.extend(_phase_deltas(
                    bench, key, base_payload.get("phases"),
                    payload.get("phases"),
                ))
            old, new = (
                ((side.get("phases") or {}).get(key) or {}).get("digest")
                for side in (base_payload, payload)
            )
            if old and new and old != new:
                report.notes.append(
                    f"{bench}/{key} simulated a different result "
                    f"(digest {old[:12]} -> {new[:12]}): its rate is not "
                    f"timing the same work as the baseline's"
                )
        # Overhead checks: absolute budgets, regression on any ok=false.
        for key in sorted(payload.get("checks", {})):
            check = payload["checks"][key]
            value = float(check.get("value", 0.0))
            base_checks = (base_payload or {}).get("checks", {})
            base_value = (
                float(base_checks[key]["value"]) if key in base_checks
                else None
            )
            report.rows.append(CompareRow(
                bench, key, value, baseline=base_value,
                status="ok" if check.get("ok") else "regression",
            ))
    for bench in sorted(set(baseline) - set(current)):
        report.notes.append(
            f"baseline bench {bench!r} was not run this time (not gated)"
        )
    return report


# -- history rendering ---------------------------------------------------------


def format_history(payloads, damage) -> str:
    """The ``repro bench history`` table: one row per recorded rate."""
    lines = []
    widths = (5, 10, 22, 14, 12, 7)
    header = ("seq", "bench", "key", "rate", "git", "dirty")
    lines.append("  ".join(
        str(col).ljust(width) for col, width in zip(header, widths)
    ).rstrip())
    for seq, payload in enumerate(payloads, start=1):
        environment = payload.get("environment", {})
        git = environment.get("git", {}) or {}
        sha = (git.get("sha") or "-")[:10]
        dirty = {True: "yes", False: "no"}.get(git.get("dirty"), "-")
        bench = payload.get("bench", "?")
        for key in sorted(payload.get("rates", {})):
            cells = (seq, bench, key, f"{float(payload['rates'][key]):.1f}",
                     sha, dirty)
            lines.append("  ".join(
                str(col).ljust(width) for col, width in zip(cells, widths)
            ).rstrip())
        for key in sorted(payload.get("checks", {})):
            check = payload["checks"][key]
            status = "ok" if check.get("ok") else "FAIL"
            cells = (seq, bench, key,
                     f"{float(check.get('value', 0.0)):.6f} [{status}]",
                     sha, dirty)
            lines.append("  ".join(
                str(col).ljust(width) for col, width in zip(cells, widths)
            ).rstrip())
    if damage:
        lines.append(
            f"  note: {len(damage)} damaged history line(s) skipped "
            f"(run `repro fsck` to repair): "
            + ", ".join(f"line {number}" for number, _ in damage[:5])
        )
    if not payloads:
        lines.append("  (history is empty)")
    return "\n".join(lines)
