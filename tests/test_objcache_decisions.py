"""Object decision logs: tracing, the JSONL codec, validation, rendering."""

import json

import pytest

from repro.objcache import generate_object_trace, replay_object_trace
from repro.telemetry.decisions import (
    FORMAT_NAME,
    OBJECT_FORMAT_NAME,
    is_object_cell,
    read_decision_log,
    validate_decision_log,
    write_decisions_jsonl,
)
from repro.telemetry.object_decisions import (
    ObjectDecisionTrace,
    render_size_profile,
)


@pytest.fixture(scope="module")
def cells():
    trace = generate_object_trace(
        name="wl", kind="zipf", objects=300, length=3000, seed=5,
        sizes={"dist": "lognormal", "min": 128, "max": 1 << 18},
    )
    payloads = []
    for policy in ("lru", "gdsf"):
        outcome = replay_object_trace(
            trace, 400_000, policy, decisions=1
        )
        payloads.append(outcome.decisions)
    return payloads


class TestTraceObject:
    def test_sample_rate_thins_events_not_aggregates(self):
        trace = generate_object_trace(
            name="wl", kind="zipf", objects=100, length=1500, seed=3
        )
        dense = replay_object_trace(
            trace, 200_000, "lru", decisions=1
        ).decisions
        sparse = replay_object_trace(
            trace, 200_000, "lru", decisions=4
        ).decisions
        assert sparse["summary"]["evictions"] == \
            dense["summary"]["evictions"]
        assert sparse["summary"]["sampled"] < dense["summary"]["sampled"]

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            ObjectDecisionTrace(sample_rate=0)

    def test_events_carry_size_and_bucket(self, cells):
        for cell in cells:
            assert cell["events"]
            for event in cell["events"]:
                assert event["size"] > 0
                assert event["bucket"] == max(
                    0, min(20, event["size"].bit_length() - 1)
                )
                assert event["grade"] in ("optimal", "neutral", "harmful")


class TestCodec:
    def test_write_read_round_trip(self, tmp_path, cells):
        path = write_decisions_jsonl(tmp_path / "d.jsonl", cells)
        loaded = read_decision_log(path)
        assert len(loaded) == len(cells)
        for original, read_back in zip(cells, loaded):
            assert read_back["workload"] == original["workload"]
            assert read_back["summary"] == original["summary"]
            assert read_back["events"] == original["events"]

    def test_sniff_recognizes_only_object_logs(self, tmp_path, cells):
        path = write_decisions_jsonl(tmp_path / "d.jsonl", cells)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == OBJECT_FORMAT_NAME
        assert all(is_object_cell(cell) for cell in read_decision_log(path))
        other = write_decisions_jsonl(tmp_path / "other.jsonl", [])
        assert json.loads(other.read_text())["format"] == FORMAT_NAME
        assert read_decision_log(other) == []

    def test_cell_count_mismatch_is_rejected(self, tmp_path, cells):
        path = write_decisions_jsonl(tmp_path / "d.jsonl", cells)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["cells"] = 99
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="declares 99 cells"):
            read_decision_log(path)


class TestValidation:
    def test_clean_log_validates(self, tmp_path, cells):
        path = write_decisions_jsonl(tmp_path / "d.jsonl", cells)
        assert validate_decision_log(path) == []

    def test_inconsistent_summary_is_flagged(self, tmp_path, cells):
        import copy

        broken = copy.deepcopy(cells)
        broken[0]["summary"]["graded"] += 1
        path = write_decisions_jsonl(tmp_path / "d.jsonl", broken)
        problems = validate_decision_log(path)
        assert any("graded != optimal + neutral + harmful" in p
                   for p in problems)


class TestRendering:
    def test_size_profile_names_cells_and_buckets(self, cells):
        rendered = render_size_profile(cells)
        assert "wl / lru" in rendered and "wl / gdsf" in rendered
        assert "size-vs-victim profile" in rendered
        assert "bucket" in rendered
        # At least one bucket row with a byte-range label.
        assert "B" in rendered
