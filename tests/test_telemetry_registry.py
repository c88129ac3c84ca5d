"""Tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.telemetry.registry import (
    MAGNITUDE_BUCKETS,
    NULL_REGISTRY,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    empty_snapshot,
    metric_key,
)


class TestMetricKey:
    def test_no_labels(self):
        assert metric_key("cache.hits", {}) == "cache.hits"

    def test_labels_sorted(self):
        key = metric_key("cache.hits", {"policy": "lru", "level": "llc"})
        assert key == "cache.hits{level=llc,policy=lru}"


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.set(1.0)
        assert gauge.value == 1.0


class TestHistogram:
    def test_bucket_assignment(self):
        hist = Histogram([1.0, 10.0])
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == pytest.approx(55.5)
        assert hist.min == 0.5
        assert hist.max == 50.0

    def test_boundary_goes_to_lower_bucket(self):
        hist = Histogram([1.0, 10.0])
        hist.observe(1.0)  # le=1.0 bucket (cumulative convention)
        assert hist.counts == [1, 0, 0]

    def test_overflow_bucket(self):
        hist = Histogram([1.0])
        hist.observe(1e9)
        assert hist.counts == [0, 1]

    def test_rejects_non_increasing_bounds(self):
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([])

    def test_as_dict_shape(self):
        hist = Histogram(RATIO_BUCKETS)
        hist.observe(0.42)
        data = hist.as_dict()
        assert len(data["counts"]) == len(data["bounds"]) + 1
        assert sum(data["counts"]) == data["count"] == 1


class TestNullRegistry:
    def test_disabled_and_inert(self):
        assert NULL_REGISTRY.enabled is False
        # All of these must be cheap no-ops that never raise.
        NULL_REGISTRY.counter("x", label="y").inc(10)
        NULL_REGISTRY.gauge("x").set(1.0)
        NULL_REGISTRY.histogram("x", MAGNITUDE_BUCKETS).observe(3.0)
        assert NULL_REGISTRY.snapshot() == empty_snapshot()

    def test_shared_instruments(self):
        # The null registry hands out one shared instrument — no allocation
        # per call site.
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        registry = MetricsRegistry()
        assert registry.counter("hits", x="1") is registry.counter("hits", x="1")
        assert registry.counter("hits", x="1") is not registry.counter("hits")

    def test_enabled(self):
        assert MetricsRegistry().enabled is True

    def test_histogram_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", [1.0, 2.0])
        with pytest.raises(ValueError):
            registry.histogram("h", [1.0, 3.0])

    def test_snapshot_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.gauge("g", k="v").set(0.5)
        registry.histogram("h", [1.0]).observe(0.1)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"]["a"] == 2
        assert snap["gauges"]["g{k=v}"] == 0.5
        assert snap["histograms"]["h"]["count"] == 1
        # Snapshot is decoupled from live instruments.
        registry.counter("a").inc()
        assert snap["counters"]["a"] == 2
