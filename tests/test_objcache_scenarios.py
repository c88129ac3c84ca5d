"""The object_cache scenario kind: schema dispatch, validation, and the
canonical-report runner."""

import pytest

from repro.scenarios import (
    ScenarioError,
    UnknownScenarioKindError,
    canonical_json,
    run_scenario,
    scenario_from_dict,
)
from repro.scenarios.object_schema import object_scenario_from_dict


def scenario_dict(**overrides):
    data = {
        "format": 1,
        "kind": "object_cache",
        "name": "unit-objcache",
        "config": {"capacity_bytes": 300_000, "requests": 2000, "seed": 7},
        "workloads": [
            {"name": "zipf-inv", "kind": "zipf", "objects": 400,
             "alpha": 1.0,
             "sizes": {"dist": "lognormal", "min": 128, "max": 65536,
                       "correlate": "inverse"}},
        ],
        "policies": ["lru", "gdsf"],
        "sanitize": "strict",
        "expect": [{"check": "conservation"}],
    }
    data.update(overrides)
    return data


class TestKindDispatch:
    def test_object_kind_routes_to_object_schema(self):
        scenario = scenario_from_dict(scenario_dict())
        assert scenario.scenario_kind == "object_cache"

    def test_absent_kind_stays_cpu_cache(self):
        scenario = scenario_from_dict({
            "format": 1, "name": "plain",
            "config": {"scale": 64, "trace_length": 256},
            "workloads": [{"name": "w", "patterns": [
                {"kind": "stream", "working_set": 0.5}]}],
            "policies": ["lru"],
        })
        assert scenario.scenario_kind == "cpu_cache"

    def test_unknown_kind_is_a_typed_one_line_error(self):
        with pytest.raises(UnknownScenarioKindError) as excinfo:
            scenario_from_dict({"kind": "quantum_cache", "name": "x"})
        error = excinfo.value
        assert isinstance(error, ScenarioError)
        assert error.kind == "quantum_cache"
        assert len(error.problems) == 1
        assert "unknown scenario kind 'quantum_cache'" in error.problems[0]
        assert "object_cache" in error.problems[0]


class TestObjectSchemaValidation:
    def test_every_problem_is_collected_at_once(self):
        data = scenario_dict(
            name="Bad Name!",
            policies=["lru", "not-a-policy"],
            expect=[
                {"check": "beats", "policy": "lru"},  # missing 'over'
                {"check": "regret", "policy": "lru"},  # missing 'max'
                {"check": "teleports"},
            ],
        )
        data["workloads"][0]["kind"] = "diurnal"
        with pytest.raises(ScenarioError) as excinfo:
            object_scenario_from_dict(data)
        joined = "\n".join(excinfo.value.problems)
        assert "name" in joined
        assert "not-a-policy" in joined
        assert "unknown workload kind" in joined
        assert "'over' baseline" in joined
        assert "'max' ceiling" in joined
        assert "unknown check" in joined

    def test_workload_params_are_kind_gated(self):
        data = scenario_dict()
        data["workloads"][0]["burst_fraction"] = 0.5  # a flash_crowd knob
        with pytest.raises(ScenarioError, match="unknown workload key"):
            object_scenario_from_dict(data)

    def test_params_must_name_scenario_policies(self):
        data = scenario_dict(params={"rlr_size": {"sample": 32}})
        with pytest.raises(ScenarioError, match="params.rlr_size"):
            object_scenario_from_dict(data)

    def test_as_dict_round_trips(self):
        data = scenario_dict(
            admission={"kind": "freq_gate", "threshold": 2},
            seeds=[3, 5],
        )
        scenario = object_scenario_from_dict(data)
        rebuilt = scenario_from_dict(scenario.as_dict())
        assert rebuilt.as_dict() == scenario.as_dict()


class TestRunner:
    @pytest.fixture(scope="class")
    def payload(self):
        scenario = scenario_from_dict(scenario_dict())
        return run_scenario(scenario)

    def test_run_scenario_dispatches_to_object_runner(self, payload):
        assert payload["scenario"]["kind"] == "object_cache"
        assert payload["ok"] is True
        assert payload["conservation"]["ok"] is True

    def test_cells_are_sorted_and_carry_object_metrics(self, payload):
        cells = payload["cells"]
        assert [
            (c["seed"], c["workload"], c["policy"]) for c in cells
        ] == sorted(
            (c["seed"], c["workload"], c["policy"]) for c in cells
        )
        for cell in cells:
            assert 0.0 <= cell["byte_hit_rate"] <= 1.0
            assert 0.0 <= cell["object_hit_rate"] <= 1.0
            assert cell["stats"]["hits"] + cell["stats"]["misses"] == \
                cell["stats"]["accesses"]

    def test_jobs_1_vs_4_byte_identical(self):
        scenario = scenario_from_dict(scenario_dict(seeds=[3, 9]))
        serial = run_scenario(scenario, jobs=1)
        parallel = run_scenario(scenario, jobs=4)
        assert canonical_json(serial) == canonical_json(parallel)

    def test_failing_beats_expectation_reports_fail(self):
        # lru does not beat gdsf on this trace — the expectation must fail
        # with a per-cell explanation, not crash.
        scenario = scenario_from_dict(scenario_dict(expect=[
            {"check": "beats", "policy": "lru", "over": "gdsf",
             "metric": "byte_hit_rate"},
        ]))
        payload = run_scenario(scenario)
        assert payload["ok"] is False
        row = payload["expectations"][0]
        assert row["status"] == "fail"
        assert any("does not beat" in failure for failure in row["failures"])

    def test_regret_expectation_auto_enables_grading(self):
        scenario = scenario_from_dict(scenario_dict(expect=[
            {"check": "regret", "policy": "gdsf", "max": 1.0},
        ]))
        payload = run_scenario(scenario)
        graded_cells = [c for c in payload["cells"] if "regret" in c]
        assert graded_cells
        assert payload["expectations"][0]["status"] == "pass"

    def test_progress_messages_are_strings(self):
        messages = []
        scenario = scenario_from_dict(scenario_dict())
        run_scenario(scenario, progress=messages.append)
        assert messages
        assert all(isinstance(m, str) and "object cells" in m
                   for m in messages)


class TestPreflightSummary:
    def test_validate_names_the_scenario_kind(self, tmp_path):
        import json

        from repro.sanitize.preflight import validate_scenario_file

        path = tmp_path / "obj.json"
        path.write_text(json.dumps(scenario_dict()))
        report = validate_scenario_file(path)
        assert report.ok
        assert report.summary.startswith("object_cache scenario")
