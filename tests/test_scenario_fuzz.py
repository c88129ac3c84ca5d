"""Hypothesis fuzzing over the scenario schema (bounded for CI).

Two properties, asserted for *every* generated scenario document:

* :func:`check_scenario_contract` — the run completes under the drawn
  sanitizer mode, conservation invariants hold on every cell, and the
  canonical report is byte-identical across worker counts;
* any loader-surviving scenario produces a replay whose decision log
  passes :func:`repro.telemetry.decisions.validate_decision_log` at
  sample rates 1 and 4.

The CI ``scenario-fuzz`` job runs this file with a larger example budget
(``REPRO_FUZZ_EXAMPLES`` overrides every test's ``max_examples``) under
the ``fuzz`` profile, so every run draws fresh examples;
``print_blob=True`` makes every failure reproducible from the printed
``@reproduce_failure`` blob.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.scenarios.fuzz import (  # noqa: E402
    check_scenario_contract,
    scenario_dicts,
    workload_dicts,
)
from repro.scenarios.runner import scenario_traces  # noqa: E402
from repro.scenarios.schema import scenario_from_dict  # noqa: E402

_BUDGET = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))


def fuzz_settings(max_examples):
    """Per-test example budget, overridable by ``REPRO_FUZZ_EXAMPLES``."""
    return settings(
        max_examples=_BUDGET or max_examples,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )


class TestGeneratedScenarios:
    @fuzz_settings(12)
    @given(data=scenario_dicts())
    def test_simulator_contract_holds(self, data):
        """Sanitized runs, conservation, and jobs-independence."""
        report = check_scenario_contract(data, jobs=(1, 2))
        # The drawn conservation expectation also evaluated clean.
        assert all(row["status"] == "pass"
                   for row in report["expectations"])

    @fuzz_settings(8)
    @given(data=scenario_dicts())
    def test_traces_have_the_declared_length(self, data):
        scenario = scenario_from_dict(data, source="<fuzz>")
        config = scenario.eval_config()
        for trace in scenario_traces(scenario, config, scenario.config.seed):
            assert len(trace.records) == scenario.config.trace_length

    @fuzz_settings(8)
    @given(workload=workload_dicts())
    def test_workload_dicts_validate_standalone(self, workload):
        data = {
            "format": 1,
            "name": "fuzzed",
            "config": {"scale": 64, "trace_length": 256},
            "workloads": [workload],
            "policies": ["lru"],
        }
        scenario = scenario_from_dict(data, source="<fuzz>")
        assert scenario.workloads[0].inline


class TestDecisionLogProperty:
    """Any loader-surviving scenario yields a valid decision log."""

    @fuzz_settings(6)
    @given(data=scenario_dicts())
    @pytest.mark.parametrize("sample_rate", [1, 4])
    def test_decision_log_validates(self, data, sample_rate):
        from repro.eval.parallel import parallel_sweep
        from repro.telemetry.decisions import (
            validate_decision_log,
            write_decisions_jsonl,
        )

        scenario = scenario_from_dict(data, source="<fuzz>")
        config = scenario.eval_config()
        traces = scenario_traces(scenario, config, scenario.config.seed)
        report = parallel_sweep(
            config,
            traces,
            list(scenario.policies),
            jobs=1,
            sanitize=scenario.sanitize,
            decisions=sample_rate,
        )
        assert not report.failures()
        cells = report.decision_payloads()
        assert cells, "decision tracing produced no payloads"
        for cell in cells:
            assert cell["sample_rate"] == sample_rate
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "decisions.jsonl"
            write_decisions_jsonl(path, cells)
            problems = validate_decision_log(path)
            assert problems == [], "\n".join(problems)
