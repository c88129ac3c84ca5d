"""Hypothesis strategies over the scenario schema, plus the fuzz contract.

:func:`scenario_dicts` generates small-but-adversarial scenario documents:
phase-shifting pattern mixes, scan-thrash interleavings, working sets that
cross the cache size mid-run, and seed/associativity jitter.  Every drawn
document validates under :func:`repro.scenarios.schema.scenario_from_dict`
by construction, so the fuzzer exercises the *simulator* contract, not the
validator's rejection paths.

:func:`check_scenario_contract` is the property the fuzz suite (and the CI
``scenario-fuzz`` job) asserts for every generated scenario:

* the run completes under the requested sanitizer mode (no failed cells),
* conservation invariants hold on every cell (hits + misses == accesses,
  evictions ≤ fills, …),
* no cell records a sanitizer violation,
* the canonical report is byte-identical across worker counts.

Hypothesis is an optional dependency of the library (tests require it);
importing this module without it raises a clear error only when a strategy
is actually requested.
"""

from __future__ import annotations

from repro.scenarios.golden import canonical_json
from repro.scenarios.runner import run_scenario
from repro.scenarios.schema import scenario_from_dict

#: Policies cheap enough to fuzz densely (no per-line learning predictors).
FUZZ_POLICIES = ("lru", "srrip", "brrip", "drrip", "ship", "rlr", "random")

#: Evaluation scales whose full hierarchy constructs (scale 128 shrinks the
#: L1 below one set) — small enough that a fuzz case runs in milliseconds.
FUZZ_SCALES = (32, 64)

FUZZ_WAYS = (2, 4, 8, 16)


def _strategies():
    try:
        from hypothesis import strategies
    except ImportError as error:  # pragma: no cover - environment-dependent
        raise RuntimeError(
            "scenario fuzzing needs the 'hypothesis' package"
        ) from error
    return strategies


def pattern_dicts():
    """Strategy: one synthetic pattern, biased toward adversarial shapes."""
    st = _strategies()

    def _build(kind, weight, working_set, extra):
        pattern = {"kind": kind, "weight": weight, "working_set": working_set}
        pattern.update(extra)
        return pattern

    def _extras(kind):
        if kind == "stride":
            return st.fixed_dictionaries({"stride": st.sampled_from((2, 7, 17))})
        if kind == "zipf":
            return st.fixed_dictionaries({"alpha": st.sampled_from((0.6, 1.0, 1.5))})
        if kind == "scan_hot":
            # Scan-thrash: a one-shot scan several times the cache size
            # flooding a reused hot set — the classic LRU-pathological mix.
            return st.fixed_dictionaries({
                "scan_lines": st.sampled_from((1.0, 2.0, 4.0, 8.0)),
                "hot_fraction": st.sampled_from((0.25, 0.5, 0.8)),
            })
        return st.just({})

    return st.sampled_from(
        ("stream", "stride", "cyclic", "random", "chase", "zipf", "scan_hot",
         "multi_stream")
    ).flatmap(lambda kind: st.builds(
        _build,
        st.just(kind),
        st.sampled_from((0.5, 1.0, 2.0)),
        # Straddle the cache size: fits-easily up to 4x capacity.
        st.sampled_from((0.125, 0.25, 0.5, 0.9, 1.5, 4.0)),
        _extras(kind),
    ))


def workload_dicts(name: str = "fuzzed"):
    """Strategy: one inline workload — flat mix or phase-shifting phases.

    Phase fractions are drawn as an equal split so they always satisfy the
    schema's sum-to-one rule; distinct per-phase patterns give working sets
    that grow or shrink across the cache boundary mid-run.
    """
    st = _strategies()

    def _flat(patterns, delta, writes):
        return {
            "name": name, "patterns": patterns,
            "mean_instr_delta": delta, "write_fraction": writes,
        }

    def _phased(pattern_lists, delta, writes):
        fraction = round(1.0 / len(pattern_lists), 4)
        return {
            "name": name,
            "phases": [
                {"fraction": fraction, "patterns": patterns}
                for patterns in pattern_lists
            ],
            "mean_instr_delta": delta, "write_fraction": writes,
        }

    delta = st.sampled_from((2, 6, 12))
    writes = st.sampled_from((0.0, 0.1, 0.3))
    flat = st.builds(
        _flat, st.lists(pattern_dicts(), min_size=1, max_size=3),
        delta, writes,
    )
    phased = st.builds(
        _phased,
        st.lists(
            st.lists(pattern_dicts(), min_size=1, max_size=2),
            min_size=2, max_size=3,
        ),
        delta, writes,
    )
    return st.one_of(flat, phased)


def scenario_dicts():
    """Strategy: complete scenario documents that pass schema validation."""
    st = _strategies()

    def _build(config, workloads, policies, sanitize):
        return {
            "format": 1,
            "name": "fuzzed",
            "config": config,
            "workloads": [
                dict(workload, name=f"fz{index}")
                for index, workload in enumerate(workloads)
            ],
            "policies": policies,
            "sanitize": sanitize,
            "expect": [{"check": "conservation"}],
        }

    config = st.fixed_dictionaries({
        "scale": st.sampled_from(FUZZ_SCALES),
        "llc_ways": st.sampled_from(FUZZ_WAYS),  # associativity jitter
        "trace_length": st.integers(min_value=200, max_value=1200),
        "seed": st.integers(min_value=0, max_value=9999),  # seed jitter
        "warmup_fraction": st.sampled_from((0.0, 0.2)),
    })
    return st.builds(
        _build,
        config,
        st.lists(workload_dicts(), min_size=1, max_size=2),
        st.lists(st.sampled_from(FUZZ_POLICIES), min_size=1, max_size=3,
                 unique=True),
        st.sampled_from(("off", "normal", "strict")),
    )


#: Object policies cheap enough to fuzz densely (rlr variants ride along at
#: a reduced sample so the scan stays cheap on tiny caches).
FUZZ_OBJECT_POLICIES = ("lru", "lru_size", "gdsf", "rlr", "rlr_size")

#: Capacities small enough that generated size distributions straddle them:
#: with sizes up to 256 KiB, single objects range from "tiny fraction of the
#: cache" to "bigger than the whole cache" (exercising the too-big reject
#: path and multi-victim evict-until-fits chains).
FUZZ_CAPACITIES = (65_536, 262_144, 2_000_000)


def object_workload_dicts(name: str = "fuzzed"):
    """Strategy: one object workload clause, biased toward adversarial
    shapes — flash-crowd phase shifts, scan pollution, and size
    distributions whose upper tail crosses the bytes capacity."""
    st = _strategies()

    def _build(kind, objects, alpha, sizes, extra):
        clause = {"name": name, "kind": kind, "objects": objects,
                  "alpha": alpha, "sizes": sizes}
        clause.update(extra)
        return clause

    def _extras(kind):
        if kind == "flash_crowd":
            return st.fixed_dictionaries({
                "burst_start": st.sampled_from((0.25, 0.5)),
                "burst_length": st.sampled_from((0.1, 0.3)),
                "burst_fraction": st.sampled_from((0.4, 0.8)),
            })
        if kind == "scan_mix":
            return st.fixed_dictionaries({
                "scan_fraction": st.sampled_from((0.2, 0.5)),
                "scan_size_scale": st.sampled_from((1.0, 4.0)),
            })
        if kind == "hotspot_shift":
            return st.fixed_dictionaries({
                "phases": st.sampled_from((2, 4)),
            })
        return st.just({})

    sizes = st.fixed_dictionaries({
        "dist": st.sampled_from(("fixed", "uniform", "lognormal", "pareto")),
        "min": st.sampled_from((64, 1024)),
        # The upper tail deliberately crosses FUZZ_CAPACITIES entries.
        "max": st.sampled_from((4096, 65_536, 262_144)),
        "correlate": st.sampled_from(("none", "inverse")),
    })
    return st.sampled_from(
        ("zipf", "hotspot_shift", "flash_crowd", "scan_mix")
    ).flatmap(lambda kind: st.builds(
        _build,
        st.just(kind),
        st.integers(min_value=16, max_value=400),
        st.sampled_from((0.6, 0.9, 1.2)),
        sizes,
        _extras(kind),
    ))


def object_scenario_dicts():
    """Strategy: complete ``object_cache`` scenario documents that pass
    schema validation by construction."""
    st = _strategies()

    def _build(config, workloads, policies, admission, sanitize):
        data = {
            "format": 1,
            "kind": "object_cache",
            "name": "fuzzed-objcache",
            "config": config,
            "workloads": [
                dict(workload, name=f"fz{index}")
                for index, workload in enumerate(workloads)
            ],
            "policies": policies,
            "sanitize": sanitize,
            "expect": [{"check": "conservation"}],
            "params": {name: {"sample": 32} for name in policies
                       if name.startswith("rlr")},
        }
        if admission is not None:
            data["admission"] = admission
        return data

    config = st.fixed_dictionaries({
        "capacity_bytes": st.sampled_from(FUZZ_CAPACITIES),
        "requests": st.integers(min_value=200, max_value=1500),
        "seed": st.integers(min_value=0, max_value=9999),
    })
    admission = st.one_of(
        st.none(),
        st.just({"kind": "always"}),
        st.just({"kind": "freq_gate", "threshold": 2}),
    )
    return st.builds(
        _build,
        config,
        st.lists(object_workload_dicts(), min_size=1, max_size=2),
        st.lists(st.sampled_from(FUZZ_OBJECT_POLICIES), min_size=1,
                 max_size=3, unique=True),
        admission,
        st.sampled_from(("off", "normal", "strict")),
    )


def check_scenario_contract(data: dict, jobs=(1, 2)) -> dict:
    """Assert the simulator contract for one generated scenario document.

    Works for both scenario kinds.  Runs the scenario once per entry in
    ``jobs`` and asserts the canonical reports are byte-identical, that no
    cell failed, that conservation holds (the kind's own laws), and that no
    cell recorded a sanitizer violation (the policy contract, and for
    object caches the admission contract too).  Returns the first report
    payload (for further assertions).
    """
    scenario = scenario_from_dict(data, source="<fuzz>")
    reports = [run_scenario(scenario, jobs=count) for count in jobs]
    first = canonical_json(reports[0])
    for count, report in zip(jobs[1:], reports[1:]):
        assert canonical_json(report) == first, (
            f"report not deterministic: jobs={jobs[0]} vs jobs={count} differ"
        )
    failed = [f"{cell['workload']}/{cell['policy']}: {cell['error']}"
              for cell in reports[0]["cells"] if cell["status"] == "failed"]
    assert not failed, "cell(s) failed:\n  " + "\n  ".join(failed)
    conservation = reports[0]["conservation"]
    assert conservation["ok"], (
        "conservation invariants violated:\n  "
        + "\n  ".join(conservation["problems"])
    )
    for cell in reports[0]["cells"]:
        assert not cell.get("violations"), (
            f"{cell['workload']}/{cell['policy']}: policy contract "
            f"violated: {cell['violations']}"
        )
    return reports[0]
