"""Declarative scenarios: experiments as validated, runnable, pinnable data.

* :mod:`repro.scenarios.schema` — the scenario model + whole-file validation
* :mod:`repro.scenarios.loader` — YAML/JSON parsing and the ``scenarios/``
  library
* :mod:`repro.scenarios.runner` — execution, conservation invariants,
  expectation checks
* :mod:`repro.scenarios.golden` — canonical digests and readable regression
  diffs
* :mod:`repro.scenarios.fuzz` — hypothesis strategies over the schema
"""

from repro.scenarios.golden import (
    canonical_json,
    compare_to_golden,
    default_golden_dir,
    diff_reports,
    golden_path,
    read_golden,
    report_digest,
    write_golden,
)
from repro.scenarios.loader import (
    default_library_dir,
    find_scenario_files,
    load_library,
    load_scenario,
    parse_scenario_text,
    resolve_scenario,
)
from repro.scenarios.object_schema import (
    ObjectExpectation,
    ObjectScenario,
    ObjectScenarioConfig,
    ObjectWorkloadClause,
    object_scenario_from_dict,
)
from repro.scenarios.runner import (
    ExpectationFailure,
    check_report,
    require_ok,
    run_scenario,
)
from repro.scenarios.schema import (
    SCENARIO_KINDS,
    Expectation,
    Scenario,
    ScenarioConfig,
    ScenarioError,
    UnknownScenarioKindError,
    WorkloadClause,
    scenario_from_dict,
)

__all__ = [
    "Expectation",
    "ExpectationFailure",
    "ObjectExpectation",
    "ObjectScenario",
    "ObjectScenarioConfig",
    "ObjectWorkloadClause",
    "SCENARIO_KINDS",
    "Scenario",
    "ScenarioConfig",
    "ScenarioError",
    "UnknownScenarioKindError",
    "WorkloadClause",
    "canonical_json",
    "check_report",
    "compare_to_golden",
    "default_golden_dir",
    "default_library_dir",
    "diff_reports",
    "find_scenario_files",
    "golden_path",
    "load_library",
    "load_scenario",
    "object_scenario_from_dict",
    "parse_scenario_text",
    "read_golden",
    "report_digest",
    "require_ok",
    "resolve_scenario",
    "run_scenario",
    "scenario_from_dict",
    "write_golden",
]
