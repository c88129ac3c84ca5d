"""``repro inspect``: render decision logs back into the paper's views.

Takes the per-eviction decision log written by ``repro sweep --decisions``
/ ``repro replay --decisions`` (see :mod:`repro.telemetry.decisions`) and
rebuilds, *without re-running any simulation* (object-cache logs render as
size-vs-victim profiles instead):

* Figure 5-7-style victim profiles (age per last-access type, hits since
  insertion, recency distribution) via
  :meth:`~repro.eval.victim_analysis.VictimStatistics.from_events` — at
  ``sample_rate=1`` these are bit-for-bit equal to a live
  :class:`~repro.eval.victim_analysis.VictimCollector` replay;
* a set-level eviction heatmap (which cache sets the policy churns);
* the Belady regret summary with its epoch-bucketed breakdown;
* the top-N worst-decisions drill-down with full feature snapshots.
"""

from __future__ import annotations

from pathlib import Path

from repro.eval.reporting import format_table
from repro.eval.timeline import render_sparkline
from repro.eval.victim_analysis import VictimStatistics
from repro.telemetry.decisions import (
    KIND_EVICT,
    cell_label,
    event_from_json,
    is_object_cell,
    read_decision_log,
)

#: Width of the per-set eviction heatmap sparkline.
HEATMAP_WIDTH = 64


def load_decision_cells(path, workload: str = None, policy: str = None) -> list:
    """Load a decision log, optionally filtered by workload/policy name."""
    cells = read_decision_log(path)
    if workload:
        cells = [cell for cell in cells if workload in str(cell.get("workload"))]
    if policy:
        cells = [cell for cell in cells if policy in str(cell.get("policy"))]
    if not cells:
        raise ValueError(
            f"no decision-log cells match workload={workload!r} "
            f"policy={policy!r} in {path}"
        )
    return cells


def regret_rows(cells) -> list:
    """One regret-summary row per cell (for the top-level table), with a
    ``seed`` column when any cell carries one."""
    seeded = any("seed" in cell for cell in cells)
    rows = []
    for cell in cells:
        summary = cell.get("summary", {})
        graded = summary.get("graded", 0)
        row = {"workload": cell.get("workload"), "policy": cell.get("policy")}
        if seeded:
            row["seed"] = cell.get("seed", "-")
        row["evictions"] = summary.get("evictions", 0)
        row["graded"] = graded
        if graded:
            row["optimal%"] = round(100 * summary["optimal"] / graded, 2)
            row["harmful%"] = round(100 * summary["harmful"] / graded, 2)
            row["regret"] = f"{summary['regret_x2'] / (2 * graded):.4f}"
        else:
            row["optimal%"] = row["harmful%"] = row["regret"] = "-"
        rows.append(row)
    return rows


def _epoch_regret_series(cell: dict) -> list:
    epochs = cell.get("epochs", {})
    series = []
    for decisions, neutral, harmful in zip(
        epochs.get("decisions", ()),
        epochs.get("neutral", ()),
        epochs.get("harmful", ()),
    ):
        series.append(
            (neutral + 2 * harmful) / (2 * decisions) if decisions else 0.0
        )
    return series


def victim_profile_block(cell: dict) -> str:
    """Figures 5-7 for one cell, from its logged events."""
    events = [event_from_json(entry) for entry in cell.get("events", ())]
    stats = VictimStatistics.from_events(events)
    lines = []
    if not stats.victims:
        return "  (no eviction events logged)"
    ages = ", ".join(
        f"{name}={value:.1f}" for name, value in stats.avg_age_by_type.items()
    )
    lines.append(f"  victims: {stats.victims} (sampled)")
    lines.append(f"  avg age since last access by type (fig 5): {ages}")
    hits = stats.hits_histogram
    lines.append(
        "  hits since insertion (fig 6): "
        + ", ".join(f"{key}: {100 * hits.get(key, 0.0):.1f}%"
                    for key in ("0", "1", ">1"))
    )
    recency = stats.recency_histogram
    if recency:
        # The log does not carry the cache geometry; the highest way index
        # touched by an eviction recovers the associativity.
        ways = 1 + max(
            (event.way for event in events if event.kind == KIND_EVICT),
            default=max(recency),
        )
        ways = max(ways, max(recency) + 1)
        series = [recency.get(r, 0.0) for r in range(ways)]
        lines.append(
            f"  recency distribution (fig 7, 0=LRU..{ways - 1}=MRU): "
            + render_sparkline(series, width=32)
            + f"  upper-half share {stats.upper_half_recency_fraction(ways):.2f}"
        )
    return "\n".join(lines)


def heatmap_block(cell: dict) -> str:
    """Per-set eviction heatmap (from the full per-set counts)."""
    set_evictions = cell.get("set_evictions")
    if not set_evictions:
        return "  (no per-set counts in this log)"
    counts = {int(key): value for key, value in set_evictions.items()}
    num_sets = max(counts) + 1
    series = [counts.get(index, 0) for index in range(num_sets)]
    hottest = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:5]
    hot = ", ".join(f"set {index}: {count}" for index, count in hottest)
    return (
        f"  evictions across {num_sets} sets: "
        + render_sparkline(series, width=HEATMAP_WIDTH)
        + f"\n  hottest sets: {hot}"
    )


def worst_decisions_block(cell: dict, top: int = 10) -> str:
    """The top-N worst (most harmful) decisions with feature snapshots."""
    worst = cell.get("worst", ())[:top]
    if not worst:
        return "  (no harmful decisions recorded)"
    rows = []
    for entry in worst:
        rows.append({
            "severity": entry.get("severity"),
            "index": entry.get("index"),
            "set": entry.get("set"),
            "way": entry.get("way"),
            "victim": hex(entry.get("victim_line", 0)),
            "age": entry.get("victim_age_last"),
            "hits": entry.get("victim_hits"),
            "rec": entry.get("victim_recency"),
            "type": entry.get("victim_last_type"),
            "inserted pc": hex(entry.get("pc", 0)),
        })
    return format_table(
        rows,
        headers=["severity", "index", "set", "way", "victim", "age",
                 "hits", "rec", "type", "inserted pc"],
        title="worst decisions (severity = victim reuse brought forward)",
    )


def violations_block(cell: dict) -> str:
    violations = cell.get("violations", ())
    if not violations:
        return ""
    lines = [f"  {len(violations)} contract violation(s):"]
    for entry in violations[:5]:
        lines.append(f"    at access {entry.get('index')}: "
                     f"{entry.get('detail')}")
    if len(violations) > 5:
        lines.append(f"    ... and {len(violations) - 5} more")
    return "\n".join(lines)


def render_inspection(cells, top: int = 10) -> str:
    """The full ``repro inspect`` report for a list of log cells.

    Object-cache cells render as size-vs-victim profiles instead of the
    Figure 5-7 views.
    """
    if any(is_object_cell(cell) for cell in cells):
        return _render_object_inspection(cells, top=top)
    rows = regret_rows(cells)
    blocks = [format_table(rows, headers=list(rows[0]),
                           title=f"decision log: {len(cells)} cell(s)")]
    for cell in cells:
        summary = cell.get("summary", {})
        title = (
            f"=== {cell_label(cell)} "
            f"(sample rate {cell.get('sample_rate', 1)}, "
            f"{summary.get('sampled', 0)} of {summary.get('evictions', 0)} "
            f"evictions logged"
            + (f", {summary['dropped']} dropped" if summary.get("dropped") else "")
            + ") ==="
        )
        parts = [title, victim_profile_block(cell), heatmap_block(cell)]
        series = _epoch_regret_series(cell)
        if any(series) or summary.get("graded"):
            graded = summary.get("graded", 0)
            mean = summary.get("regret_x2", 0) / (2 * graded) if graded else 0.0
            parts.append(
                f"  regret per epoch: {render_sparkline(series, width=32)} "
                f"(mean {mean:.4f}; 0 = always OPT, 1 = always harmful)"
            )
        if cell.get("worst") or summary.get("graded"):
            parts.append(worst_decisions_block(cell, top=top))
        violations = violations_block(cell)
        if violations:
            parts.append(violations)
        blocks.append("\n".join(parts))
    return "\n\n".join(blocks)


def _render_object_inspection(cells, top: int = 10) -> str:
    """The ``repro inspect`` report for object-cache decision logs:
    per-cell regret table, size-vs-victim profiles, and the largest graded
    victims (sampled events)."""
    from repro.telemetry.object_decisions import render_size_profile

    rows = regret_rows(cells)
    blocks = [format_table(rows, headers=list(rows[0]),
                           title=f"object decision log: {len(cells)} cell(s)")]
    blocks.append(render_size_profile(cells))
    for cell in cells:
        events = sorted(
            cell.get("events", ()),
            key=lambda event: (-event.get("size", 0), event.get("index", 0)),
        )[:top]
        if not events:
            continue
        rows = [{
            "index": event.get("index"),
            "key": event.get("key"),
            "size": event.get("size"),
            "bucket": event.get("bucket"),
            "age": event.get("age"),
            "hits": event.get("hits"),
            "seen": event.get("seen_before"),
            "incoming": event.get("incoming_size"),
            "grade": event.get("grade") or "-",
        } for event in events]
        blocks.append(format_table(
            rows,
            headers=["index", "key", "size", "bucket", "age", "hits",
                     "seen", "incoming", "grade"],
            title=f"{cell_label(cell)}: largest sampled victims",
        ))
    return "\n\n".join(blocks)


def resolve_decision_log(path, default_root=".repro-runs"):
    """Resolve a run id / run dir / log path to a decision-log file.

    Raises ``ValueError`` with a friendly message (listing known runs
    where that helps) instead of letting consumers hit a traceback.
    """
    from repro.runs.supervisor import DECISIONS_NAME, list_runs

    candidate = Path(path)
    if not candidate.exists():
        candidate = Path(default_root) / str(path)
    if not candidate.exists():
        known = ", ".join(list_runs(default_root)) or "none"
        raise ValueError(
            f"no run directory or decision log at {str(path)!r} "
            f"(known runs under {default_root}: {known})"
        )
    if candidate.is_file():
        return candidate
    log_path = candidate / DECISIONS_NAME
    if log_path.is_file():
        return log_path
    raise ValueError(
        f"run directory {candidate} has no decision log ({DECISIONS_NAME})"
        f" — was the run started with --decisions?"
    )
