"""What ``object_cache`` scenarios do differently inside the scenario runner.

:mod:`repro.scenarios.runner` runs both scenario kinds through
one body (cells sorted by ``(seed, workload, policy)``, full-``repr`` floats,
byte-identical payloads across job counts, conservation on every cell, the
declared expectations).  The object kind supplies only its traces, its
sweep call, its cell fields and its conservation law (byte/object
accounting from :func:`repro.objcache.core.conservation_problems`).
"""

from __future__ import annotations

from repro.objcache.core import conservation_problems
from repro.objcache.replay import object_sweep
from repro.objcache.workloads import generate_object_trace
from repro.scenarios.object_schema import ObjectScenario


def object_scenario_traces(scenario: ObjectScenario, seed: int) -> list:
    """Materialise one run's worth of workload traces (deterministic)."""
    traces = []
    for clause in scenario.workloads:
        traces.append(generate_object_trace(
            name=clause.name,
            kind=clause.kind,
            objects=clause.objects,
            length=(clause.length if clause.length is not None
                    else scenario.config.requests),
            seed=seed,
            alpha=clause.alpha,
            sizes=clause.sizes or None,
            **clause.params,
        ))
    return traces


def sweep_seed(scenario: ObjectScenario, seed: int, *, progress=None,
               **options):
    """One seed's object sweep: scenario traces through ``object_sweep``.

    ``options`` are ``object_sweep``'s ``jobs``, ``decisions``, ``journal``,
    ``timeout`` and ``retries``; the seed is the journal tag.
    """
    report = object_sweep(
        object_scenario_traces(scenario, seed),
        scenario.config.capacity_bytes,
        list(scenario.policies),
        admission=scenario.admission,
        policy_params=scenario.params,
        sanitize=scenario.sanitize,
        journal_tag=seed,
        **options,
    )
    if progress is not None:
        progress(f"seed {seed}: {len(report.cells)} object cells in "
                 f"{report.wall_seconds:.2f}s")
    return report


def cell_fields(scenario: ObjectScenario, result) -> dict:
    """The object metrics a canonical report cell carries."""
    return {
        "byte_hit_rate": result.byte_hit_rate,
        "object_hit_rate": result.object_hit_rate,
        "capacity_bytes": scenario.config.capacity_bytes,
        "stats": result.stats_dict(),
    }


def cell_conservation(scenario: ObjectScenario, stats: dict) -> list:
    """Violated byte/object accounting laws in one cell's counters."""
    return conservation_problems(stats, scenario.config.capacity_bytes)
