"""``repro.telemetry`` — metrics, spans, and phase attribution.

The observability layer for long-running entry points (sweeps, training,
parallel evaluation).  Three pieces:

* a process-local **metrics registry** (:mod:`repro.telemetry.registry`)
  with counters, gauges, and fixed-bucket histograms, all of whose
  snapshots merge deterministically (order-independent, byte-identical
  across worker counts);
* **span tracing** (:mod:`repro.telemetry.spans`): ``with span("name",
  key=value): ...`` appends timed JSONL events to the run directory;
* **phase attribution** (:mod:`repro.telemetry.perf`): the
  :class:`PhaseProfile` record of ``repro bench``, which splits a replay's
  wall time into phases by differencing unprofiled runs.

Telemetry is **off by default** and the disabled path is engineered to be
free: ``get_registry()`` returns a shared null registry and ``span()``
returns a shared null context manager.  The hot loops are wrapped once
per loop, never per item: the ``replay`` and ``prepare_workload`` spans
carry the loop's record count.  Enable it per process::

    from repro import telemetry
    telemetry.configure(registry=telemetry.MetricsRegistry(),
                        span_path=run_dir / "spans.jsonl")
    ...
    snapshot = telemetry.get_registry().snapshot()
    telemetry.shutdown()

See docs/observability.md for the file formats and CLI surfacing
(``repro sweep --metrics``, ``repro metrics <run-dir>``).
"""

from __future__ import annotations

from repro.telemetry.perf import PHASES, PhaseProfile
from repro.telemetry.registry import (
    MAGNITUDE_BUCKETS,
    NULL_REGISTRY,
    RATIO_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    canonical_json,
    deterministic_digest,
    empty_snapshot,
    merge_snapshots,
    metric_key,
)
from repro.telemetry.spans import (
    NULL_SPAN,
    Span,
    SpanRecorder,
    read_spans,
    summarize_spans,
)

__all__ = [
    "MAGNITUDE_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "PHASES",
    "PhaseProfile",
    "RATIO_BUCKETS",
    "Span",
    "SpanRecorder",
    "canonical_json",
    "configure",
    "deterministic_digest",
    "emit_span",
    "empty_snapshot",
    "get_recorder",
    "get_registry",
    "is_enabled",
    "merge_snapshots",
    "metric_key",
    "read_spans",
    "shutdown",
    "span",
    "summarize_spans",
]

_registry = NULL_REGISTRY
_recorder = None  # Optional[SpanRecorder]


def configure(registry=None, span_path=None, span_recorder=None):
    """Enable telemetry for this process.

    ``registry`` activates metric collection (pass a
    :class:`MetricsRegistry`; ``None`` leaves the current one).
    ``span_path`` opens a :class:`SpanRecorder` appending to that file
    (``span_recorder`` passes one directly).  Returns the active registry.
    """
    global _registry, _recorder
    if registry is not None:
        _registry = registry
    elif _registry is NULL_REGISTRY:
        _registry = MetricsRegistry()
    if span_recorder is not None:
        _recorder = span_recorder
    elif span_path is not None:
        _recorder = SpanRecorder(span_path)
    return _registry


def shutdown() -> None:
    """Disable telemetry and close the span recorder (back to free no-ops)."""
    global _registry, _recorder
    _registry = NULL_REGISTRY
    if _recorder is not None:
        _recorder.close()
        _recorder = None


def is_enabled() -> bool:
    """True once :func:`configure` has activated a live registry."""
    return _registry is not NULL_REGISTRY


def get_registry():
    """The active registry (the shared null registry when disabled)."""
    return _registry


def get_recorder():
    """The active span recorder, or ``None`` when tracing is off."""
    return _recorder


def span(name: str, **attrs):
    """Context manager timing its body into the span log.

    When no recorder is configured this returns a shared no-op object —
    the disabled cost is one global read and one function call per span
    site (spans wrap phases, never per-access work).
    """
    recorder = _recorder
    if recorder is None:
        return NULL_SPAN
    return Span(recorder, name, attrs)


def emit_span(name: str, duration_s: float, **attrs) -> None:
    """Record an externally timed span (e.g. measured in a worker)."""
    recorder = _recorder
    if recorder is not None:
        recorder.emit(name, duration_s, **attrs)
