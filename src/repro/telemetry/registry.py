"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints (see docs/observability.md):

* **Cheap when disabled.**  The global accessor
  (:func:`repro.telemetry.get_registry`) returns the shared
  :data:`NULL_REGISTRY` unless telemetry has been configured, and every
  null instrument's method is a bound no-op — instrumented code pays one
  attribute call, no allocation, no branching on flags.
* **Deterministic merge semantics.**  A sweep runs cells in worker
  processes; each worker's :meth:`MetricsRegistry.snapshot` is a plain,
  JSON-serializable dict and :func:`merge_snapshots` combines any number of
  them with commutative, associative operators (counters sum, gauges take
  the max, histograms merge bucket-wise).  Merging N snapshots is therefore
  order-independent: ``--jobs 1`` and ``--jobs 4`` produce byte-identical
  merged counters (the property tests permute snapshots to prove it).
* **Fixed buckets.**  Histogram bucket bounds are part of the metric's
  identity; merging histograms with different bounds is a hard error, never
  a silent re-bucketing.

Metric identity is ``name`` plus optional labels; labels are folded into
the key as ``name{k=v,...}`` with sorted keys, so two registries always
agree on the key for the same (name, labels) pair.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from typing import Optional

#: Default histogram bounds for unit-interval ratios (hit rates, utilization).
RATIO_BUCKETS = tuple(round(0.1 * i, 1) for i in range(1, 10))

#: Default histogram bounds for MPKI-like magnitudes.
MAGNITUDE_BUCKETS = (0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500)


def metric_key(name: str, labels: dict) -> str:
    """Canonical registry key for ``name`` + ``labels`` (sorted, stable)."""
    if not labels:
        return name
    encoded = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{encoded}}}"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value; merges deterministically by maximum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max aggregates.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last bound, so
    ``counts`` has ``len(bounds) + 1`` entries.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for the disabled path."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Registry stand-in when telemetry is disabled: every call is a no-op.

    A single shared instance (:data:`NULL_REGISTRY`) serves the whole
    process; its factory methods return one shared instrument, so the
    disabled path never allocates.
    """

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=None, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return empty_snapshot()


NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """A live collection of named instruments (one per process/task)."""

    enabled = True

    def __init__(self) -> None:
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- instrument factories (get-or-create) -------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, buckets=RATIO_BUCKETS, **labels) -> Histogram:
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        elif tuple(instrument.bounds) != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {key!r} re-registered with different buckets"
            )
        return instrument

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict, JSON-serializable copy of every instrument."""
        return {
            "counters": {
                key: counter.value for key, counter in sorted(self._counters.items())
            },
            "gauges": {
                key: gauge.value for key, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                key: histogram.as_dict()
                for key, histogram in sorted(self._histograms.items())
            },
        }


def empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def _merge_histogram(into: dict, other: dict, key: str) -> dict:
    if into["bounds"] != other["bounds"]:
        raise ValueError(
            f"cannot merge histogram {key!r}: bucket bounds differ "
            f"({into['bounds']} vs {other['bounds']})"
        )
    mins = [m for m in (into["min"], other["min"]) if m is not None]
    maxes = [m for m in (into["max"], other["max"]) if m is not None]
    return {
        "bounds": list(into["bounds"]),
        "counts": [a + b for a, b in zip(into["counts"], other["counts"])],
        "sum": into["sum"] + other["sum"],
        "count": into["count"] + other["count"],
        "min": min(mins) if mins else None,
        "max": max(maxes) if maxes else None,
    }


def merge_snapshots(snapshots) -> dict:
    """Merge any number of snapshots with order-independent semantics.

    Counters sum, gauges take the maximum, histograms merge bucket-wise
    (sums of counts, min of mins, max of maxes).  Every operator is
    commutative and associative — exactly so for the integer parts
    (counters, bucket counts, ``count``) and for min/max, and up to
    floating-point ULP rounding for histogram ``sum`` (float addition is
    not bit-associative).  Callers that need *byte*-identical output — the
    sweep pipeline does — merge in a canonical order (sorted report cells),
    which also pins the float sums; the property tests cover both levels.
    """
    counters = {}
    gauges = {}
    histograms = {}
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in snapshot.get("gauges", {}).items():
            gauges[key] = max(gauges[key], value) if key in gauges else value
        for key, value in snapshot.get("histograms", {}).items():
            if key in histograms:
                histograms[key] = _merge_histogram(histograms[key], value, key)
            else:
                histograms[key] = {
                    "bounds": list(value["bounds"]),
                    "counts": list(value["counts"]),
                    "sum": value["sum"],
                    "count": value["count"],
                    "min": value["min"],
                    "max": value["max"],
                }
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def canonical_json(snapshot: dict) -> str:
    """Byte-stable serialization (sorted keys, repr-exact floats)."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def deterministic_digest(snapshot: dict) -> str:
    """SHA-256 over the canonical serialization — the byte-identity check."""
    return hashlib.sha256(canonical_json(snapshot).encode("utf-8")).hexdigest()
