"""One engine contract for both cache kinds.

* Both sweep entry points (``parallel_sweep`` and ``object_sweep``) run
  through the same sweep loop, so they reject the same bad arguments.
* The module attributes the benchmark (``bench/rep.py``) patches to time
  each layer are looked up at call time, and each scenario seed makes
  exactly one call to exactly one sweep entry point.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.eval.parallel as parallel
import repro.objcache.replay as objreplay
import repro.scenarios.object_runner as object_runner
import repro.scenarios.runner as runner
from repro.eval.prep_cache import PrepCache
from repro.eval.workloads import EvalConfig
from repro.objcache import generate_object_trace
from repro.scenarios import resolve_scenario, run_scenario

#: (module, attribute) pairs the benchmark wraps with spans or counters.
HOOKS = [
    (runner, "scenario_traces"),
    (object_runner, "object_scenario_traces"),
    (object_runner, "object_sweep"),
    (parallel, "parallel_sweep"),
    (parallel, "prepare_workload"),
    (parallel, "workload_cache_key"),
    (parallel, "replay"),
    (parallel, "BeladyPolicy"),
    (objreplay, "replay_object_trace"),
    (PrepCache, "load"),
    (PrepCache, "store"),
]


def _cpu_sweep(**options):
    config = EvalConfig(scale=64, trace_length=300, seed=1)
    return parallel.parallel_sweep(config, ["429.mcf"], ["lru"], **options)


def _object_sweep(**options):
    trace = generate_object_trace(name="z", kind="zipf", objects=20,
                                  length=100, seed=1)
    return objreplay.object_sweep([trace], 10_000, ["lru"], **options)


@pytest.mark.parametrize("sweep", [_cpu_sweep, _object_sweep],
                         ids=["parallel_sweep", "object_sweep"])
@pytest.mark.parametrize("options, message", [
    ({"jobs": 0}, "jobs must be >= 1"),
    ({"decisions": 0}, "decisions sample rate must be >= 1"),
])
def test_entry_points_reject_bad_arguments(sweep, options, message):
    with pytest.raises(ValueError, match=message):
        sweep(**options)


@pytest.fixture
def calls(monkeypatch):
    """Count every call through each benchmark hook (pass-through)."""
    counts = Counter()

    def counting(name, original):
        def hook(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return hook

    for owner, attribute in HOOKS:
        monkeypatch.setattr(owner, attribute,
                            counting(attribute, getattr(owner, attribute)))
    return counts


def test_cpu_scenario_goes_through_every_cpu_hook(calls, tmp_path):
    scenario = resolve_scenario("smoke-quick")
    run_scenario(scenario, jobs=1, cache_dir=tmp_path / "prep")
    seeds = len(scenario.run_seeds)
    workloads = len(scenario.workloads)
    assert calls["parallel_sweep"] == seeds
    assert calls["scenario_traces"] == seeds
    assert calls["object_sweep"] == 0
    assert calls["object_scenario_traces"] == 0
    assert calls["replay_object_trace"] == 0
    assert calls["prepare_workload"] == workloads * seeds
    assert calls["workload_cache_key"] == workloads * seeds
    assert calls["load"] == calls["store"] == workloads * seeds
    # Belady's policy is built once per workload, then replayed like any.
    assert calls["BeladyPolicy"] == workloads * seeds
    assert calls["replay"] == workloads * len(scenario.policies) * seeds


def test_object_scenario_goes_through_every_object_hook(calls):
    scenario = resolve_scenario("objcache-zipf-baselines")
    payload = run_scenario(scenario, jobs=1)
    seeds = len(scenario.run_seeds)
    assert calls["object_sweep"] == seeds
    assert calls["object_scenario_traces"] == seeds
    assert calls["parallel_sweep"] == 0
    assert calls["scenario_traces"] == 0
    assert calls["replay"] == calls["prepare_workload"] == 0
    assert calls["replay_object_trace"] == len(payload["cells"]) == (
        len(scenario.workloads) * len(scenario.policies) * seeds
    )
