"""Self-tests of the benchmark harness: ``pytest bench -q``.

They run the harness itself (short runs) and its traced path in-process
on the smallest library scenario.  Tier-1 (``testpaths = tests``) does not
collect them.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rep
import run

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _harness(*args, cwd=ROOT, script=ROOT / "bench" / "run.py"):
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done.returncode, result


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = _harness(
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace))
        return cache[workload, trace]

    return get


def test_declaration_matches_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} \
        == run.PER_LAYER_UNITS
    assert DECLARED["run_seconds"] == run.DEFAULT_SECONDS
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.match(metric["name"]) and len(metric["name"]) <= 64


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_declared_metric_is_emitted(results, workload, trace):
    code, result = results(workload, trace)
    assert code == 0 and result["correct"], result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        if not trace:
            assert metric["value"] > 0, name


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    """One traced run of the smallest library scenario, in this process."""
    rep.import_repro()
    import repro.eval.parallel as parallel
    import repro.objcache.replay as objreplay
    import repro.scenarios.object_runner as object_runner
    import repro.scenarios.runner as runner
    from repro.eval.prep_cache import PrepCache
    from repro.scenarios.loader import load_scenario

    owners = (runner, object_runner, parallel, objreplay, PrepCache)
    before = {(owner, name): value for owner in owners
              for name, value in vars(owner).items()}
    scenario = load_scenario(ROOT / "scenarios" / "smoke" / "smoke-quick.yaml")
    tracer = rep.Tracer("smoke")
    payload, digest, reports, wall = rep.run_once(
        scenario, 1, tmp_path_factory.mktemp("prep"), tracer)
    after = {(owner, name): value for owner in owners
             for name, value in vars(owner).items()}
    return tracer.spans, wall, payload, before, after


def test_span_self_times_reconcile_with_traced_wall(traced_smoke):
    spans, wall, payload, _, _ = traced_smoke
    assert payload["ok"]
    assert {"run", "traces", "sweep", "pass1", "prep_cache.key",
            "prep_cache.load", "prep_cache.store", "replay",
            "report"} <= {span["name"] for span in spans}
    attributed = sum(rep.self_times(spans).values())
    assert abs(attributed - wall) <= 0.01 * wall
    metrics = rep.layer_metrics(spans)
    assert metrics["pass1.llc_records"] > 0
    assert metrics["replay.belady.ns_per_access"] > 0


def test_module_attributes_restored_after_traced_run(traced_smoke):
    _, _, _, before, after = traced_smoke
    changed = [key[1] for key in before if after.get(key) is not before[key]]
    assert after.keys() == before.keys() and not changed


def _copy_bench(tmp_path: Path, with_src: bool) -> Path:
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path / "bench" / "run.py"


def test_tampered_pinned_digest_fails_every_cell(tmp_path):
    script = _copy_bench(tmp_path, with_src=True)
    digests = tmp_path / "bench" / "digests.json"
    pinned = json.loads(digests.read_text(encoding="utf-8"))
    pinned["objcache-zipf"] = "0" * 64
    digests.write_text(json.dumps(pinned), encoding="utf-8")
    code, result = _harness("--workload", "objcache-zipf", "--seed", "7",
                            "--seconds", "1", cwd=tmp_path, script=script)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    script = _copy_bench(tmp_path, with_src=False)
    code, result = _harness("--workload", "objcache-zipf", "--seconds", "1",
                            cwd=tmp_path, script=script)
    assert code != 0 and result is None


def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert run.verdict(base, [1.03, 1.04, 1.02, 1.03, 1.05], 0.1,
                       "lower") == "within-bound"
    assert run.verdict(base, [1.20, 1.21, 1.19, 1.20, 1.22], 0.1,
                       "lower") == "worse"
    assert run.verdict(base, [0.80, 0.81, 0.79, 0.80, 0.82], 0.1,
                       "higher") == "worse"
    noisy = [0.6, 1.0, 1.4, 0.7, 1.3]
    assert run.verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert run.verdict(noisy, [0.3, 0.31, 0.29, 0.3, 0.32], 0.1,
                       "lower") == "within-bound"


def _set_file(path: Path, extra_runs=()) -> Path:
    """A set of three passing untraced runs per workload, plus extras."""
    metrics = {metric["name"]: {"value": 1.0, "unit": metric["unit"]}
               for metric in DECLARED["end_to_end"]}
    runs = [{"workload": name, "seed": seed, "trace": 0, "exit": 0,
             "result": {"correct": True, "attempted": 24, "failed": 0,
                        "metrics": metrics}}
            for name in run.WORKLOADS for seed in range(3)]
    path.write_text(json.dumps({"runs": runs + list(extra_runs)}),
                    encoding="utf-8")
    return path


def test_compare_counts_failed_runs(tmp_path, capsys):
    base = _set_file(tmp_path / "a.json")
    assert run.compare(base, _set_file(tmp_path / "b.json")) == 0
    crashed = {"workload": "mix4-shared", "seed": 3, "trace": 0, "exit": 1,
               "result": None}
    capsys.readouterr()
    assert run.compare(base, _set_file(tmp_path / "c.json", [crashed])) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # workload failed_frac A (n/m cells) B (n/m cells) verdict (any increase)
    failed_rows = {row[0]: row for row in rows if row[1] == "failed_frac"}
    assert failed_rows["mix4-shared"][5:9] == ["0.2500", "(24/96", "cells)",
                                               "worse"]
    assert failed_rows["sweep-cold"][8] == "within-bound"
