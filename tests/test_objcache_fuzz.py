"""Hypothesis fuzzing over the object_cache scenario kind (bounded for CI).

For every generated object scenario — size distributions whose tails cross
the bytes capacity, flash-crowd phase shifts, admission variants — the run
must complete, the byte-conservation invariant must hold on every cell, the
admission/eviction contract wrappers must record zero violations, and the
canonical report must be byte-identical across worker counts.

The CI ``objcache-smoke`` job runs this file with a larger example budget
(``REPRO_FUZZ_EXAMPLES``) under the ``fuzz`` profile, so every run draws
fresh examples; a failure prints its ``@reproduce_failure`` blob.
"""

from __future__ import annotations

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.objcache.workloads import WORKLOAD_KINDS  # noqa: E402
from repro.scenarios.fuzz import (  # noqa: E402
    check_scenario_contract,
    object_scenario_dicts,
    object_workload_dicts,
)
from repro.scenarios.object_runner import (  # noqa: E402
    object_scenario_traces,
)
from repro.scenarios.schema import scenario_from_dict  # noqa: E402

_BUDGET = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))


def fuzz_settings(max_examples):
    return settings(
        max_examples=_BUDGET or max_examples,
        deadline=None,
        print_blob=True,
        suppress_health_check=[HealthCheck.too_slow],
    )


class TestGeneratedObjectScenarios:
    @fuzz_settings(10)
    @given(data=object_scenario_dicts())
    def test_contract_holds(self, data):
        """Conservation, zero guard violations, jobs-independence."""
        report = check_scenario_contract(data, jobs=(1, 2))
        assert all(row["status"] == "pass"
                   for row in report["expectations"])

    @fuzz_settings(8)
    @given(data=object_scenario_dicts())
    def test_traces_have_the_declared_length(self, data):
        scenario = scenario_from_dict(data, source="<fuzz>")
        for trace in object_scenario_traces(scenario, scenario.config.seed):
            assert len(trace.requests) == scenario.config.requests

    @fuzz_settings(8)
    @given(workload=object_workload_dicts())
    def test_workload_dicts_validate_standalone(self, workload):
        data = {
            "format": 1,
            "kind": "object_cache",
            "name": "fuzzed",
            "config": {"capacity_bytes": 100_000, "requests": 256},
            "workloads": [workload],
            "policies": ["lru"],
        }
        scenario = scenario_from_dict(data, source="<fuzz>")
        assert scenario.workloads[0].kind in WORKLOAD_KINDS

    @fuzz_settings(6)
    @given(data=object_scenario_dicts())
    def test_sizes_can_cross_the_capacity(self, data):
        """The strategy is allowed to draw objects bigger than the whole
        cache — the replay must count them rejected, never crash."""
        scenario = scenario_from_dict(data, source="<fuzz>")
        capacity = scenario.config.capacity_bytes
        report = check_scenario_contract(data, jobs=(1,))
        for cell in report["cells"]:
            assert cell["stats"]["bytes_in_cache"] <= capacity
