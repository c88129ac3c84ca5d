"""Tests for metrics.json, validation and rendering."""

import json

import pytest

from repro.telemetry.export import (
    SCHEMA_VERSION,
    build_payload,
    load_metrics_json,
    payload_digest,
    render_metrics,
    validate_metrics,
    write_metrics_json,
)
from repro.telemetry.registry import MetricsRegistry


def _sample_payload():
    registry = MetricsRegistry()
    registry.counter("cache.hits", level="llc", policy="lru").inc(123)
    registry.counter("sweep.cells_ok").inc(4)
    registry.gauge("rl.train_hit_rate").set(0.61)
    hist = registry.histogram("replay.llc_hit_rate", [0.25, 0.5, 0.75],
                              policy="lru")
    hist.observe(0.4)
    hist.observe(0.9)
    return build_payload(
        "sweep",
        registry.snapshot(),
        timings={"wall_seconds": 3.2, "cell_seconds": {"a/lru": 0.5}},
        ops={"timeouts": 0, "retries": 1},
        meta={"run_id": "run-0001"},
    )


class TestBuildAndValidate:
    def test_valid_payload_has_no_problems(self):
        assert validate_metrics(_sample_payload()) == []

    def test_schema_version_stamped(self):
        assert _sample_payload()["schema"] == SCHEMA_VERSION

    def test_rejects_non_object(self):
        assert validate_metrics([1, 2]) == ["payload is not an object"]

    def test_rejects_wrong_schema(self):
        payload = _sample_payload()
        payload["schema"] = 999
        assert any("schema" in p for p in validate_metrics(payload))

    def test_rejects_bool_counter(self):
        payload = _sample_payload()
        payload["counters"]["bad"] = True
        assert any("counters" in p for p in validate_metrics(payload))

    def test_rejects_histogram_shape_mismatch(self):
        payload = _sample_payload()
        key = next(iter(payload["histograms"]))
        payload["histograms"][key]["counts"].append(0)
        assert any("len(bounds)+1" in p for p in validate_metrics(payload))

    def test_rejects_histogram_count_mismatch(self):
        payload = _sample_payload()
        key = next(iter(payload["histograms"]))
        payload["histograms"][key]["count"] += 1
        assert any("sum(counts)" in p for p in validate_metrics(payload))


class TestWriteLoadRoundtrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.json"
        payload = _sample_payload()
        write_metrics_json(path, payload)
        assert load_metrics_json(path) == payload

    def test_load_accepts_run_directory(self, tmp_path):
        payload = _sample_payload()
        write_metrics_json(tmp_path / "metrics.json", payload)
        assert load_metrics_json(tmp_path) == payload

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"schema": 42}), encoding="utf-8")
        with pytest.raises(ValueError, match="not a valid metrics payload"):
            load_metrics_json(path)

    def test_written_file_is_sorted_and_stable(self, tmp_path):
        payload = _sample_payload()
        write_metrics_json(tmp_path / "a.json", payload)
        write_metrics_json(tmp_path / "b.json", payload)
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()


class TestPayloadDigest:
    def test_ignores_wall_clock_sections(self):
        fast = _sample_payload()
        slow = _sample_payload()
        slow["timings"]["wall_seconds"] = 9999.0
        slow["ops"]["retries"] = 50
        slow["meta"]["run_id"] = "run-0777"
        assert payload_digest(fast) == payload_digest(slow)

    def test_sensitive_to_counters(self):
        left = _sample_payload()
        right = _sample_payload()
        right["counters"]["sweep.cells_ok"] += 1
        assert payload_digest(left) != payload_digest(right)


class TestRenderMetrics:
    def test_renders_all_sections(self):
        text = render_metrics(_sample_payload())
        assert "counters (sweep)" in text
        assert "cache.hits{level=llc,policy=lru}" in text
        assert "gauges" in text
        assert "histograms" in text
        assert "timings (wall clock)" in text
        assert "cell_seconds.a/lru" in text
        assert "reliability ops" in text

    def test_empty_payload(self):
        text = render_metrics(build_payload("sweep", {}))
        assert text == "(no metrics recorded)"

    def test_quiet_ops_omitted(self):
        payload = build_payload("sweep", {}, ops={"timeouts": 0, "crashes": 0})
        assert "reliability ops" not in render_metrics(payload)
