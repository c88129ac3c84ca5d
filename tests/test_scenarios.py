"""The declarative scenario subsystem: schema, loader, runner, library."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cache.replacement import POLICY_REGISTRY
from repro.cache.replacement.lru import LRUPolicy
from repro.scenarios import (
    ExpectationFailure,
    ScenarioError,
    check_report,
    load_library,
    load_scenario,
    parse_scenario_text,
    require_ok,
    resolve_scenario,
    run_scenario,
    scenario_from_dict,
)
from repro.scenarios.loader import model_scenario_dict
from repro.scenarios.runner import (
    build_clause_trace,
    conservation_problems,
    scenario_traces,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
LIBRARY = REPO_ROOT / "scenarios"

#: A tiny but complete scenario: inline workload, two policies, Belady.
TINY = {
    "format": 1,
    "name": "tiny",
    "config": {"scale": 64, "trace_length": 600, "seed": 3},
    "workloads": [
        {"name": "loop", "patterns": [
            {"kind": "cyclic", "working_set": 0.5},
        ]},
    ],
    "policies": ["lru", "srrip", "belady"],
    "expect": [
        {"check": "conservation"},
        {"check": "belady_dominates"},
    ],
}


def tiny(**overrides):
    data = json.loads(json.dumps(TINY))
    data.update(overrides)
    return scenario_from_dict(data, source="<test>")


class TestSchema:
    def test_round_trip_through_as_dict(self):
        scenario = tiny()
        again = scenario_from_dict(scenario.as_dict(), source="<again>")
        assert again.as_dict() == scenario.as_dict()

    def test_defaults(self):
        scenario = tiny()
        assert scenario.config.llc_ways == 16
        assert scenario.config.num_cores == 1
        assert scenario.run_seeds == (3,)
        assert scenario.sweep_policies == ["lru", "srrip"]
        assert scenario.include_belady

    def test_unknown_policy_rejected(self):
        with pytest.raises(ScenarioError) as exc:
            tiny(policies=["lru", "clairvoyant"])
        assert "unknown policy 'clairvoyant'" in str(exc.value)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown key"):
            tiny(workload="oops")

    def test_out_of_range_ways_rejected(self):
        with pytest.raises(ScenarioError, match="llc_ways"):
            tiny(config={"scale": 64, "llc_ways": 128})

    def test_non_constructing_geometry_rejected(self):
        # Scale 2048 with the full way count leaves the L1s below one set.
        with pytest.raises(ScenarioError, match="geometry does not construct"):
            tiny(config={"scale": 2048})

    def test_phase_fractions_must_sum_to_one(self):
        workload = {
            "name": "w", "phases": [
                {"fraction": 0.2, "patterns": [{"kind": "stream"}]},
                {"fraction": 0.2, "patterns": [{"kind": "cyclic"}]},
            ],
        }
        with pytest.raises(ScenarioError, match="expected ~1.0"):
            tiny(workloads=[workload])

    def test_belady_dominates_needs_belady(self):
        with pytest.raises(ScenarioError, match="belady"):
            tiny(policies=["lru"], expect=[{"check": "belady_dominates"}])

    def test_multicore_needs_mixes(self):
        with pytest.raises(ScenarioError, match="mixes"):
            tiny(config={"scale": 64, "num_cores": 2})

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ScenarioError) as exc:
            tiny(policies=["nope"], sanitize="nuclear", golden="yes")
        message = str(exc.value)
        assert "policies[0]" in message
        assert "sanitize" in message
        assert "golden" in message


class TestLoader:
    def test_yaml_and_json_parse_identically(self):
        yaml = pytest.importorskip("yaml")
        text = yaml.safe_dump(TINY)
        from_yaml = parse_scenario_text(text, fmt="yaml")
        from_json = parse_scenario_text(json.dumps(TINY), fmt="json")
        assert from_yaml.as_dict() == from_json.as_dict()

    def test_bad_yaml_is_a_scenario_error(self):
        pytest.importorskip("yaml")
        with pytest.raises(ScenarioError, match="not valid YAML"):
            parse_scenario_text("{unclosed: [", fmt="yaml")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="does not exist"):
            load_scenario(tmp_path / "ghost.json")

    def test_resolve_by_name_and_by_path(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(TINY))
        by_path = resolve_scenario(str(path))
        by_name = resolve_scenario("tiny", root=tmp_path)
        assert by_path.as_dict() == by_name.as_dict()

    def test_duplicate_names_rejected(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps(TINY))
        (tmp_path / "b.json").write_text(json.dumps(TINY))
        with pytest.raises(ScenarioError, match="duplicate scenario name"):
            load_library(tmp_path)


class TestLibrary:
    """The checked-in ``scenarios/`` directory is always fully valid."""

    def test_every_library_file_validates(self):
        library = load_library(LIBRARY)
        assert len(library) >= 25
        for name, scenario in library.items():
            assert scenario.name == name

    def test_benchmark_configs_come_from_the_library(self):
        library = load_library(LIBRARY)
        for name in ("fig1", "fig3", "fig4", "fig10", "fig11", "fig12",
                     "fig13", "table1", "table4", "agreement",
                     "assoc-sensitivity", "size-sensitivity",
                     "seed-robustness", "epsilon-sweep", "generalization",
                     "hillclimb", "kpcp-prefetcher", "suite-profile"):
            assert name in library, f"benchmarks need scenario {name!r}"

    def test_golden_scenarios_are_marked(self):
        library = load_library(LIBRARY)
        golden = sorted(n for n, s in library.items() if s.golden)
        assert golden == [
            "objcache-flash-crowd", "objcache-zipf-baselines",
            "smoke-multicore", "smoke-phase-shift", "smoke-quick",
            "smoke-regret", "smoke-scan-thrash",
        ]

    @pytest.fixture(autouse=True)
    def _needs_yaml(self):
        pytest.importorskip("yaml")  # the library scenarios are YAML

    def test_every_registered_model_is_run_by_a_scenario(self):
        """A replacement policy, object policy or admission gate lands
        with a library scenario that runs it."""
        from repro.cache.replacement import POLICY_REGISTRY
        from repro.objcache.admission import OBJECT_ADMISSION_REGISTRY
        from repro.objcache.policies import OBJECT_POLICY_REGISTRY

        policies = {"cpu_cache": set(), "object_cache": set()}
        gates = {"always"}  # the default: no admission clause
        for scenario in load_library(LIBRARY).values():
            kind = getattr(scenario, "scenario_kind", "cpu_cache")
            policies[kind].update(scenario.policies)
            if getattr(scenario, "admission", None):
                gates.add(scenario.admission["kind"])
        exempt = {
            # Contrast LLC policies that tests set against the others,
            # e.g. tests/test_inclusive.py (mru), tests/test_cpu.py (mru)
            # and tests/test_agreement.py (random).
            "mru", "random",
            # DRRIP's bimodal half: DRRIPPolicy reads
            # BRRIPPolicy.LONG_PROBABILITY.
            "brrip",
        }
        assert set(POLICY_REGISTRY) - exempt - policies["cpu_cache"] == set()
        assert set(OBJECT_POLICY_REGISTRY) - policies["object_cache"] == set()
        assert set(OBJECT_ADMISSION_REGISTRY) - gates == set()

    @pytest.mark.parametrize("suite", ["spec2006", "cloudsuite"])
    def test_model_port_matches_code(self, suite):
        """The ported model scenarios rebuild byte-identical traces.

        ``scenarios/models/<suite>.yaml`` carries every built-in workload
        model as an inline pattern clause; drift between the YAML and
        ``repro.traces.spec_models`` would silently fork the workloads.
        """
        from repro.eval.workloads import suite_names

        scenario = resolve_scenario(f"models-{suite}", root=LIBRARY)
        assert list(scenario.workload_names) == suite_names(suite)
        regenerated = scenario_from_dict(
            model_scenario_dict(suite), source="<generated>"
        )
        assert regenerated.as_dict() == scenario.as_dict()

    def test_model_clause_traces_match_builtin_models(self):
        """Spot-check: an inline ported clause replays the code's bytes."""
        from repro.traces.spec_models import build_trace, get_workload

        scenario = resolve_scenario("models-spec2006", root=LIBRARY)
        clause = next(c for c in scenario.workloads
                      if c.name == "429.mcf")
        assert clause.inline
        ported = build_clause_trace(
            clause, llc_lines=512, length=1500, seed=scenario.config.seed
        )
        builtin = build_trace(
            get_workload("429.mcf"), llc_lines=512, length=1500,
            seed=scenario.config.seed,
        )
        assert [r.address for r in ported.records] == \
               [r.address for r in builtin.records]
        assert [r.access_type for r in ported.records] == \
               [r.access_type for r in builtin.records]


class TestTraces:
    def test_phase_shift_concatenates_to_requested_length(self):
        workload = {
            "name": "shift", "phases": [
                {"fraction": 0.3, "patterns": [{"kind": "stream"}]},
                {"fraction": 0.7, "patterns": [
                    {"kind": "cyclic", "working_set": 2.0},
                ]},
            ],
        }
        scenario = tiny(workloads=[workload])
        trace = build_clause_trace(
            scenario.workloads[0], llc_lines=512, length=777, seed=1
        )
        assert len(trace.records) == 777
        assert trace.name == "shift"

    def test_scenario_traces_one_per_workload(self):
        scenario = tiny()
        config = scenario.eval_config()
        traces = scenario_traces(scenario, config, seed=3)
        assert [t.name for t in traces] == ["loop"]

    def test_multicore_mix_traces(self):
        data = json.loads(json.dumps(TINY))
        data["config"]["num_cores"] = 2
        data["workloads"] = ["450.soplex", "471.omnetpp"]
        data["mixes"] = [["450.soplex", "471.omnetpp"]]
        data["expect"] = [{"check": "conservation"}]
        data["policies"] = ["lru"]
        scenario = scenario_from_dict(data)
        config = scenario.eval_config()
        traces = scenario_traces(scenario, config, seed=3)
        assert len(traces) == 1
        assert traces[0].name == "450.soplex+471.omnetpp"


class TestRunner:
    def test_report_shape_and_determinism(self):
        from repro.scenarios import canonical_json

        scenario = tiny()
        one = run_scenario(scenario, jobs=1)
        two = run_scenario(scenario, jobs=2)
        assert canonical_json(one) == canonical_json(two)
        assert one["format"] == 1
        assert one["ok"]
        cells = one["cells"]
        assert [(c["workload"], c["policy"]) for c in cells] == [
            ("loop", "belady"), ("loop", "lru"), ("loop", "srrip"),
        ]
        for cell in cells:
            assert cell["seed"] == 3
            assert not conservation_problems(cell["stats"])

    def test_expectation_failure_is_readable(self):
        scenario = tiny(expect=[
            {"check": "hit_rate", "policy": "lru", "min": 1.01},
        ])
        payload = run_scenario(scenario)
        assert not payload["ok"]
        with pytest.raises(ExpectationFailure, match="below min 1.01"):
            require_ok(scenario, payload)

    def test_regret_expectation_enables_decision_tracing(self):
        # The working set must overflow the cache or nothing is evicted
        # (and an eviction-free cell has no graded decisions to bound).
        thrash = {"name": "loop", "patterns": [
            {"kind": "cyclic", "working_set": 2.0},
        ]}
        scenario = tiny(
            workloads=[thrash],
            policies=["lru"],
            expect=[{"check": "regret", "policy": "lru", "max": 1.0}],
        )
        payload = run_scenario(scenario)
        (cell,) = payload["cells"]
        assert cell["regret"]["graded"] > 0
        assert payload["ok"]

    def test_multiple_seeds_produce_one_cell_block_each(self):
        scenario = tiny(seeds=[3, 5], policies=["lru"],
                        expect=[{"check": "conservation"}])
        payload = run_scenario(scenario)
        assert [c["seed"] for c in payload["cells"]] == [3, 5]
        # Different trace seeds genuinely re-generate the workload.
        a, b = payload["cells"]
        assert a["stats"] != b["stats"] or a["ipc"] != b["ipc"]

    def test_conservation_checker_flags_bad_counters(self):
        stats = {"accesses": 10, "hits": 4, "misses": 5, "evictions": 9,
                 "dirty_evictions": 12, "bypasses": 0}
        problems = conservation_problems(stats)
        assert any("!= accesses" in p for p in problems)
        assert any("exceed fills" in p for p in problems)
        assert any("dirty evictions" in p for p in problems)

    def test_report_depends_on_the_scenario_alone(self):
        # Decision logs are a side artifact: forcing them adds no regret
        # to a scenario that has no regret expectation.
        from repro.scenarios import canonical_json

        scenario = tiny()
        plain = run_scenario(scenario)
        traced = run_scenario(scenario, decisions=1)
        assert canonical_json(plain) == canonical_json(traced)
        assert not any("regret" in cell for cell in traced["cells"])


class RaisingPolicy(LRUPolicy):
    """LRU until its first eviction decision, which raises."""

    name = "raising"

    def victim(self, set_index, cache_set, access):
        raise RuntimeError("synthetic victim failure")


THRASH = {"name": "loop", "patterns": [{"kind": "cyclic", "working_set": 2.0}]}


class TestFailedCells:
    """A cell whose policy raises is reported as failed, never raised."""

    @pytest.fixture
    def scenario(self, monkeypatch):
        monkeypatch.setitem(POLICY_REGISTRY, "raising", RaisingPolicy)
        return tiny(workloads=[THRASH], policies=["lru", "raising"],
                    seeds=[3, 4], expect=[{"check": "conservation"}])

    def test_run_scenario_reports_the_failed_cells(self, scenario):
        payload = run_scenario(scenario)
        failed = [cell for cell in payload["cells"]
                  if cell["status"] == "failed"]
        assert [(c["policy"], c["seed"]) for c in failed] == [
            ("raising", 3), ("raising", 4)]
        for cell in failed:
            assert cell["error"] == "RuntimeError: synthetic victim failure"
            assert set(cell) == {"workload", "policy", "seed", "status",
                                 "error"}
        assert payload["ok"] is False
        assert payload["conservation"]["ok"]  # the cells that ran are fine
        problems = check_report(payload)
        assert [problem for problem in problems if "loop/raising" in problem
                and "synthetic victim failure" in problem] == problems
        assert len(problems) == 2

    def test_sweep_writes_the_report_and_exits_1(self, scenario, tmp_path,
                                                 capsys):
        from repro.cli import main

        path = tmp_path / "failing.json"
        path.write_text(json.dumps(scenario.as_dict()))
        code = main(["sweep", "--scenario", str(path),
                     "--run-dir", str(tmp_path / "runs")])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        assert "loop/raising (seed 3): RuntimeError: synthetic victim " \
            "failure" in captured.out
        run_dir = tmp_path / "runs" / "run-0001"
        document = json.loads((run_dir / "report.json").read_text())
        assert document["report"]["ok"] is False
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "failed"
