"""Object-trace replay and the object sweep: determinism, report shape,
and the headline policy ordering on the inverse-correlated regime."""

import pytest

from repro.objcache import (
    generate_object_trace,
    object_sweep,
    replay_object_trace,
    traces_from_specs,
)

from tests.conftest import cell_rows

CAPACITY = 3_000_000


@pytest.fixture(scope="module")
def inverse_trace():
    """Zipfian popularity with hot-objects-small sizes — the regime where
    size-aware eviction pays off on byte hit rate."""
    return generate_object_trace(
        name="zipf-inv", kind="zipf", objects=1500, length=10_000, seed=7,
        alpha=1.0,
        sizes={"dist": "lognormal", "min": 256, "max": 1 << 20,
               "correlate": "inverse"},
    )


class TestReplay:
    def test_result_balances_and_reports_rates(self, inverse_trace):
        outcome = replay_object_trace(inverse_trace, CAPACITY, "lru")
        result = outcome.result
        assert outcome.violations == ()
        assert result.hits + result.misses == result.accesses == 10_000
        assert result.admitted_bytes == (
            result.evicted_bytes + result.bytes_in_cache
        )
        assert 0.0 < result.byte_hit_rate < 1.0
        assert result.byte_hit_rate < result.object_hit_rate

    def test_decision_tracing_grades_every_eviction(self, inverse_trace):
        outcome = replay_object_trace(
            inverse_trace, CAPACITY, "gdsf", decisions=1
        )
        payload = outcome.decisions
        assert payload is not None
        summary = payload["summary"]
        assert summary["evictions"] == outcome.result.evictions
        assert summary["graded"] == summary["sampled"]
        assert summary["graded"] == (
            summary["optimal"] + summary["neutral"] + summary["harmful"]
        )
        assert payload["size_buckets"]

    def test_policy_params_are_applied(self, inverse_trace):
        wide = replay_object_trace(
            inverse_trace, CAPACITY, "rlr_size",
            policy_params={"sample": 8},
        )
        narrow = replay_object_trace(
            inverse_trace, CAPACITY, "rlr_size",
            policy_params={"sample": 256},
        )
        assert wide.result != narrow.result


class TestPolicyOrdering:
    """The acceptance-criteria comparisons, pinned at test scale."""

    @pytest.fixture(scope="class")
    def rates(self, inverse_trace):
        report = object_sweep(
            [inverse_trace], CAPACITY,
            ["lru", "lru_size", "gdsf", "rlr", "rlr_size"],
        )
        return {
            cell.policy: cell.result.byte_hit_rate for cell in report.cells
        }

    def test_gdsf_beats_lru_on_byte_hit_rate(self, rates):
        assert rates["gdsf"] > rates["lru"]

    def test_size_aware_rlr_beats_size_agnostic_rlr(self, rates):
        assert rates["rlr_size"] > rates["rlr"]


class TestSweep:
    def test_jobs_1_and_2_are_byte_identical(self, inverse_trace):
        def run(jobs):
            report = object_sweep(
                [inverse_trace], CAPACITY, ["lru", "gdsf"], jobs=jobs,
            )
            return cell_rows(report)

        assert run(1) == run(2)

    def test_format_uses_object_columns(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({
            "kind": "object_cache", "name": "tiny",
            "config": {"capacity_bytes": 50_000, "requests": 300},
            "workloads": [{"name": "z", "kind": "zipf", "objects": 50}],
            "policies": ["lru"],
        }))
        code = main(["sweep", "--scenario", str(path),
                     "--run-dir", str(tmp_path / "runs")])
        rendered = capsys.readouterr().out
        assert code == 0
        assert "byte-hit%" in rendered
        assert "obj-hit%" in rendered
        assert "ipc" not in rendered

    def test_traces_from_specs_materialises_workloads(self):
        traces = traces_from_specs(
            [{"name": "a", "kind": "zipf", "objects": 50, "length": 200}],
            default_seed=5,
        )
        assert len(traces) == 1
        assert traces[0].name == "a"
        assert len(traces[0].requests) == 200
