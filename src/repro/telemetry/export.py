"""Surfacing: ``metrics.json`` and plain-text tables.

``metrics.json`` (written into the run directory by ``repro sweep
--metrics`` and rendered by ``repro metrics <run-dir>``) separates the
deterministic sections from wall-clock data:

.. code-block:: json

    {
      "schema": 1,
      "kind": "sweep",
      "counters":   {"cache.hits{level=llc,policy=rlr}": 123},
      "gauges":     {"rl.train_hit_rate": 0.61},
      "histograms": {"replay.llc_hit_rate{policy=rlr}": {
                        "bounds": [...], "counts": [...],
                        "sum": 1.2, "count": 2, "min": 0.5, "max": 0.7}},
      "timings":    {"wall_seconds": 3.2, "cell_seconds": {...}},
      "ops":        {"timeouts": 0, "crashes": 0, "retries": 0},
      "meta":       {"run_id": "run-0001"}
    }

``counters``/``gauges``/``histograms`` are pure functions of simulation
results and merge deterministically (``--jobs 1`` == ``--jobs 4``, byte
for byte); ``timings``/``ops``/``meta`` are observability-only.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.runs.atomic import atomic_write_text
from repro.telemetry.registry import deterministic_digest

SCHEMA_VERSION = 1

METRICS_NAME = "metrics.json"
SPANS_NAME = "spans.jsonl"


def build_payload(kind: str, snapshot: dict, timings: dict = None,
                  ops: dict = None, meta: dict = None) -> dict:
    """Assemble a schema-versioned payload from a merged snapshot."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "counters": snapshot.get("counters", {}),
        "gauges": snapshot.get("gauges", {}),
        "histograms": snapshot.get("histograms", {}),
        "timings": timings or {},
        "ops": ops or {},
        "meta": meta or {},
    }


def deterministic_sections(payload: dict) -> dict:
    """The byte-comparable subset (counters/gauges/histograms only)."""
    return {
        "counters": payload.get("counters", {}),
        "gauges": payload.get("gauges", {}),
        "histograms": payload.get("histograms", {}),
    }


def payload_digest(payload: dict) -> str:
    """SHA-256 of the deterministic sections (jobs-count invariant)."""
    return deterministic_digest(deterministic_sections(payload))


def write_metrics_json(path, payload: dict) -> Path:
    """Atomically write ``payload`` as sorted, indented JSON."""
    path = Path(path)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_metrics_json(path) -> dict:
    path = Path(path)
    if path.is_dir():
        path = path / METRICS_NAME
    if not path.is_file():
        raise ValueError(
            f"no {path.name} at {path.parent} (was the run started "
            f"with --metrics?)"
        )
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ValueError(f"could not read {path}: {error}") from error
    problems = validate_metrics(payload)
    if problems:
        raise ValueError(
            f"{path} is not a valid metrics payload: " + "; ".join(problems)
        )
    return payload


def validate_metrics(payload) -> list:
    """Schema check; returns a list of problems (empty == valid)."""
    problems = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {SCHEMA_VERSION}"
        )
    if not isinstance(payload.get("kind"), str):
        problems.append("kind missing or not a string")
    for section, value_check in (
        ("counters", lambda v: isinstance(v, int) and not isinstance(v, bool)),
        ("gauges", lambda v: isinstance(v, (int, float))),
    ):
        section_value = payload.get(section)
        if not isinstance(section_value, dict):
            problems.append(f"{section} missing or not an object")
            continue
        for key, value in section_value.items():
            if not value_check(value):
                problems.append(f"{section}[{key!r}] has invalid value {value!r}")
    histograms = payload.get("histograms")
    if not isinstance(histograms, dict):
        problems.append("histograms missing or not an object")
    else:
        for key, hist in histograms.items():
            if not isinstance(hist, dict):
                problems.append(f"histograms[{key!r}] is not an object")
                continue
            bounds = hist.get("bounds")
            counts = hist.get("counts")
            if not isinstance(bounds, list) or not isinstance(counts, list):
                problems.append(f"histograms[{key!r}] missing bounds/counts")
            elif len(counts) != len(bounds) + 1:
                problems.append(
                    f"histograms[{key!r}] needs len(bounds)+1 counts"
                )
            elif sum(counts) != hist.get("count"):
                problems.append(
                    f"histograms[{key!r}] count does not equal sum(counts)"
                )
    for section in ("timings", "ops", "meta"):
        if section in payload and not isinstance(payload[section], dict):
            problems.append(f"{section} is not an object")
    return problems


# -- plain-text rendering ------------------------------------------------------


def render_metrics(payload: dict) -> str:
    """Human-readable tables for ``repro metrics`` (and ``sweep --metrics``)."""
    from repro.eval.reporting import format_table

    blocks = []
    counters = payload.get("counters", {})
    if counters:
        rows = [{"counter": key, "value": value}
                for key, value in sorted(counters.items())]
        blocks.append(format_table(rows, headers=["counter", "value"],
                                   title=f"counters ({payload.get('kind')})"))
    gauges = payload.get("gauges", {})
    if gauges:
        rows = [{"gauge": key, "value": round(value, 6)}
                for key, value in sorted(gauges.items())]
        blocks.append(format_table(rows, headers=["gauge", "value"],
                                   title="gauges"))
    histograms = payload.get("histograms", {})
    if histograms:
        rows = []
        for key, hist in sorted(histograms.items()):
            rows.append({
                "histogram": key,
                "count": hist.get("count", 0),
                "mean": round(hist["sum"] / hist["count"], 4)
                if hist.get("count") else "-",
                "min": "-" if hist.get("min") is None else round(hist["min"], 4),
                "max": "-" if hist.get("max") is None else round(hist["max"], 4),
            })
        blocks.append(format_table(
            rows, headers=["histogram", "count", "mean", "min", "max"],
            title="histograms",
        ))
    timings = payload.get("timings", {})
    if timings:
        rows = []
        for key in sorted(timings):
            value = timings[key]
            if isinstance(value, dict):
                for sub, seconds in sorted(value.items()):
                    rows.append({"timing": f"{key}.{sub}",
                                 "seconds": round(seconds, 4)})
            elif value is not None:
                rows.append({"timing": key, "seconds": round(value, 4)})
        blocks.append(format_table(rows, headers=["timing", "seconds"],
                                   title="timings (wall clock)"))
    ops = payload.get("ops", {})
    if any(ops.values()):
        rows = [{"op": key, "value": value} for key, value in sorted(ops.items())]
        blocks.append(format_table(rows, headers=["op", "value"],
                                   title="reliability ops"))
    return "\n\n".join(blocks) if blocks else "(no metrics recorded)"


