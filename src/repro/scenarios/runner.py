"""Execute scenarios: build traces, sweep, check invariants, report.

:func:`sweep_scenario` sweeps every seed of a validated
:class:`~repro.scenarios.schema.Scenario` (optionally journaling each cell
for ``--resume``), and :func:`scenario_report` turns the sweeps into a
*canonical report*: a plain-JSON payload whose cells are sorted by
``(seed, workload, policy)`` and whose floats carry full ``repr`` precision,
so the same scenario produces byte-identical payloads across job counts,
interruptions, and machines (the guarantee the golden-regression harness in
:mod:`repro.scenarios.golden` pins).  :func:`run_scenario` composes the two.

Every run checks the *conservation invariants* on every cell that ran —
hits + misses == accesses, evictions never exceed fills (misses −
bypasses), dirty evictions never exceed evictions — and then the scenario's
declared expectations (hit-rate bounds, speedup floors, Belady-regret
ceilings, Belady dominance).  A failed cell is reported, not raised.
"""

from __future__ import annotations

from repro.eval.metrics import geomean, mix_speedup
from repro.scenarios.schema import Scenario, WorkloadClause
from repro.traces.record import Trace
from repro.traces.spec_models import WorkloadSpec, build_trace, get_workload

#: Report payload format (bumped on incompatible payload changes).
REPORT_FORMAT = 1


class ExpectationFailure(AssertionError):
    """A scenario ran fine but one of its expected invariants failed."""

    def __init__(self, scenario_name: str, failures):
        self.failures = list(failures)
        super().__init__(
            f"scenario {scenario_name!r}: {len(self.failures)} expectation "
            "failure(s):\n" +
            "\n".join(f"  - {failure}" for failure in self.failures)
        )


# -- trace construction --------------------------------------------------------


def build_clause_trace(
    clause: WorkloadClause, llc_lines: int, length: int, seed: int,
    core: int = 0,
) -> Trace:
    """Instantiate one workload clause as a concrete trace.

    Model references delegate to the built-in workload models (identical
    bytes to :meth:`EvalConfig.trace`); inline clauses build one
    :class:`WorkloadSpec` per phase and concatenate the phases, which is
    what lets a scenario shift its mix — or walk its working set across the
    cache size — mid-run.
    """
    if not clause.inline:
        trace = build_trace(
            get_workload(clause.model), llc_lines=llc_lines, length=length,
            seed=seed, core=core,
        )
        if clause.name != clause.model:
            trace.name = clause.name
        return trace
    records = []
    remaining = length
    for index, phase in enumerate(clause.phases):
        if index + 1 == len(clause.phases):
            phase_length = remaining  # last phase absorbs rounding
        else:
            phase_length = min(remaining, max(1, round(phase.fraction * length)))
        if phase_length <= 0:
            continue
        spec = WorkloadSpec(
            name=clause.name,
            suite="scenario",
            patterns=phase.patterns,
            mean_instr_delta=clause.mean_instr_delta,
            write_fraction=clause.write_fraction,
        )
        phase_trace = build_trace(
            spec, llc_lines=llc_lines, length=phase_length,
            seed=seed + 7919 * index, core=core,
        )
        records.extend(phase_trace.records)
        remaining -= phase_length
    return Trace(clause.name, records)


def scenario_traces(scenario: Scenario, eval_config, seed: int) -> list:
    """The traces one scenario run sweeps (single-core cells or mixes)."""
    llc_lines = eval_config.llc_lines
    length = scenario.config.trace_length
    clauses = {clause.name: clause for clause in scenario.workloads}
    if scenario.mixes is None:
        return [
            build_clause_trace(clause, llc_lines, length, seed)
            for clause in scenario.workloads
        ]
    if scenario.mixes.random_count:
        from repro.traces.mix import random_mixes

        mixes = random_mixes(
            scenario.workload_names, scenario.mixes.random_count,
            mix_size=scenario.config.num_cores, seed=seed,
        )
    else:
        mixes = scenario.mixes.explicit
    from repro.traces.mix import interleave

    traces = []
    for mix in mixes:
        per_core = [
            build_clause_trace(clauses[name], llc_lines, length, seed, core=i)
            for i, name in enumerate(mix)
        ]
        traces.append(interleave(per_core))
    return traces


# -- conservation invariants ---------------------------------------------------

#: The llc_stats counters a canonical cell carries (deterministic subset).
CELL_STAT_KEYS = (
    "accesses", "hits", "misses", "evictions", "dirty_evictions", "bypasses",
)


def conservation_problems(stats: dict) -> list:
    """Violated conservation laws in one cell's LLC counters (empty = ok)."""
    problems = []
    if stats["hits"] + stats["misses"] != stats["accesses"]:
        problems.append(
            f"hits ({stats['hits']}) + misses ({stats['misses']}) != "
            f"accesses ({stats['accesses']})"
        )
    fills = stats["misses"] - stats["bypasses"]
    if stats["evictions"] > fills:
        problems.append(
            f"evictions ({stats['evictions']}) exceed fills ({fills} = "
            f"misses - bypasses)"
        )
    if stats["dirty_evictions"] > stats["evictions"]:
        problems.append(
            f"dirty evictions ({stats['dirty_evictions']}) exceed total "
            f"evictions ({stats['evictions']})"
        )
    if stats["bypasses"] > stats["misses"]:
        problems.append(
            f"bypasses ({stats['bypasses']}) exceed misses "
            f"({stats['misses']})"
        )
    return problems


# -- running -------------------------------------------------------------------


def _object_kind(scenario):
    """:mod:`repro.scenarios.object_runner` for an ``object_cache`` scenario
    (which supplies what that kind does differently), else None."""
    if scenario.scenario_kind != "object_cache":
        return None
    from repro.scenarios import object_runner

    return object_runner


def _grades(scenario) -> bool:
    """Whether the scenario's report carries per-cell Belady regret.

    Exactly when it has a ``regret`` expectation, which also turns decision
    grading on by itself; so no option can add regret to the report.
    """
    return any(e.check == "regret" for e in scenario.expect)


def _sweep_seed(scenario: Scenario, seed: int, *, cache_dir, **options):
    """One seed's CPU sweep: scenario traces through ``parallel_sweep``."""
    from repro.eval import parallel

    eval_config = scenario.eval_config(seed)
    return parallel.parallel_sweep(
        eval_config,
        scenario_traces(scenario, eval_config, seed),
        list(scenario.policies),
        num_cores=scenario.config.num_cores,
        cache_dir=cache_dir,
        sanitize=scenario.sanitize,
        journal_tag=seed,
        **options,
    )


def sweep_scenario(scenario, *, jobs: int = 1, cache_dir=None, progress=None,
                   decisions: int = None, journal=None, timeout=None,
                   retries: int = 0) -> list:
    """Sweep every seed of a scenario; returns ``[(seed, SweepReport)]``.

    Each seed makes one sweep call: ``parallel_sweep`` for ``cpu_cache``
    scenarios, ``object_sweep`` (via
    :func:`repro.scenarios.object_runner.sweep_seed`) for ``object_cache``
    ones.  ``cache_dir`` is the CPU pass-1 cache; object traces have no
    pass 1.  ``decisions`` is the decision-log sample rate (rate 1 when the
    scenario grades regret and none is given).  With a ``journal`` (a
    :class:`~repro.runs.journal.RunJournal`), each seed's cells are journaled
    under ``tag=seed`` and cells already journaled are adopted, not re-run.
    """
    if decisions is None and _grades(scenario):
        decisions = 1
    options = {"jobs": jobs, "progress": progress, "decisions": decisions,
               "journal": journal, "timeout": timeout, "retries": retries}
    objects = _object_kind(scenario)
    reports = []
    for seed in scenario.run_seeds:
        if objects is not None:
            report = objects.sweep_seed(scenario, seed, **options)
        else:
            report = _sweep_seed(scenario, seed, cache_dir=cache_dir,
                                 **options)
        reports.append((seed, report))
    return reports


def _cell_payload(scenario, cell, seed: int, graded: bool) -> dict:
    payload = {
        "workload": cell.workload,
        "policy": cell.policy,
        "seed": seed,
        "status": cell.status,
    }
    if not cell.ok:
        payload["error"] = (cell.error or "?").strip().splitlines()[-1]
        return payload
    result = cell.result
    objects = _object_kind(scenario)
    if objects is not None:
        payload.update(objects.cell_fields(scenario, result))
    else:
        payload.update({
            "ipc": list(result.ipc),
            "hit_rate": result.llc_hit_rate,
            "demand_hit_rate": result.llc_demand_hit_rate,
            "demand_mpki": result.demand_mpki,
            "stats": {key: result.llc_stats[key] for key in CELL_STAT_KEYS},
        })
    if cell.violations:
        payload["violations"] = list(cell.violations)
    if graded and cell.regret is not None:
        payload["regret"] = dict(cell.regret)
    return payload


def scenario_report(scenario, seed_reports) -> dict:
    """The canonical report payload of one scenario's ``[(seed, report)]``.

    A failed cell carries its status and the last line of its error; the
    conservation and expectation checks skip it, and ``ok`` is False.
    """
    graded = _grades(scenario)
    cells = [
        _cell_payload(scenario, cell, seed, graded)
        for seed, report in seed_reports
        for cell in report.cells  # sorted by (workload, policy)
    ]
    ran = [cell for cell in cells if cell["status"] != "failed"]
    payload = {
        "format": REPORT_FORMAT,
        "scenario": scenario.as_dict(),
        "cells": cells,
        "conservation": _check_conservation(scenario, ran),
        "expectations": evaluate_expectations(scenario, ran),
    }
    payload["ok"] = (
        len(ran) == len(cells)
        and payload["conservation"]["ok"]
        and all(e["status"] == "pass" for e in payload["expectations"])
    )
    return payload


def run_scenario(
    scenario,
    jobs: int = 1,
    cache_dir=None,
    progress=None,
    decisions: int = None,
) -> dict:
    """Run one scenario of either kind; return its canonical report payload.

    :func:`sweep_scenario` then :func:`scenario_report`, with no journal,
    so nothing touches the disk beyond the CPU ``cache_dir``.  The report
    depends on the scenario alone: ``decisions`` turns decision logs on
    (or sets their sample rate) but never changes the payload.
    """
    return scenario_report(scenario, sweep_scenario(
        scenario, jobs=jobs, cache_dir=cache_dir, progress=progress,
        decisions=decisions,
    ))


def _cell_problems(scenario, cell) -> list:
    """Violated conservation laws of one payload cell, for its kind."""
    objects = _object_kind(scenario)
    if objects is not None:
        return objects.cell_conservation(scenario, cell["stats"])
    return conservation_problems(cell["stats"])


def _check_conservation(scenario, cells) -> dict:
    problems = []
    for cell in cells:
        for problem in _cell_problems(scenario, cell):
            problems.append(
                f"{cell['workload']}/{cell['policy']} (seed "
                f"{cell['seed']}): {problem}"
            )
    return {"ok": not problems, "problems": problems}


# -- expectations --------------------------------------------------------------


def _matching(cells, expectation):
    for cell in cells:
        if expectation.policy and cell["policy"] != expectation.policy:
            continue
        if expectation.workload and cell["workload"] != expectation.workload:
            continue
        yield cell


def _check_rate(cells, expectation, metric: str) -> list:
    """Per-cell bounds on a rate (``hit_rate``, ``byte_hit_rate``, ...)."""
    failures = []
    label = metric.replace("_", " ")
    for cell in _matching(cells, expectation):
        rate = cell[metric]
        if expectation.min is not None and rate < expectation.min:
            failures.append(
                f"{cell['workload']}/{cell['policy']}: {label} {rate:.4f} "
                f"below min {expectation.min}"
            )
        if expectation.max is not None and rate > expectation.max:
            failures.append(
                f"{cell['workload']}/{cell['policy']}: {label} {rate:.4f} "
                f"above max {expectation.max}"
            )
    return failures


def speedup_over(cells, over: str, policy: str = None,
                 workload: str = None):
    """Geomean IPC speedup (percent) of the matching cells over ``over``'s.

    Each cell is compared with the ``over`` cell of its (workload, seed);
    ``policy``/``workload`` narrow the cells compared.  None when no cell
    pairs up with a baseline.
    """
    baselines = {
        (cell["workload"], cell["seed"]): cell["ipc"]
        for cell in cells if cell["policy"] == over
    }
    ratios = []
    for cell in cells:
        if cell["policy"] == over or policy not in (None, cell["policy"]):
            continue
        if workload not in (None, cell["workload"]):
            continue
        baseline = baselines.get((cell["workload"], cell["seed"]))
        if baseline is not None:
            ratios.append(mix_speedup(cell["ipc"], baseline))
    return (geomean(ratios) - 1) * 100 if ratios else None


def _check_speedup(cells, expectation) -> list:
    overall = speedup_over(cells, expectation.over, expectation.policy,
                           expectation.workload)
    if overall is None:
        return [f"no cells to compare against baseline {expectation.over!r}"]
    if overall < expectation.min:
        return [
            f"geomean speedup over {expectation.over} is {overall:+.3f}%, "
            f"below min {expectation.min}%"
        ]
    return []


def _check_beats(cells, expectation) -> list:
    """``policy`` must strictly beat ``over`` on ``metric``, cell by cell.

    The claim is evaluated per (workload, seed) pair — an aggregate win that
    hides a per-workload loss fails — with an optional ``min`` margin
    (absolute difference the winner must clear, default strictly greater).
    """
    baselines = {
        (cell["workload"], cell["seed"]): cell[expectation.metric]
        for cell in cells if cell["policy"] == expectation.over
    }
    margin = expectation.min or 0.0
    failures = []
    compared = 0
    for cell in _matching(cells, expectation):
        if cell["policy"] != expectation.policy:
            continue
        baseline = baselines.get((cell["workload"], cell["seed"]))
        if baseline is None:
            continue
        compared += 1
        value = cell[expectation.metric]
        if not value > baseline + margin:
            failures.append(
                f"{cell['workload']} (seed {cell['seed']}): "
                f"{expectation.policy} {expectation.metric} {value:.4f} does "
                f"not beat {expectation.over} {baseline:.4f}"
                + (f" by {margin}" if margin else "")
            )
    if not compared:
        return [f"no cells compare {expectation.policy!r} against "
                f"{expectation.over!r}"]
    return failures


def _check_regret(cells, expectation, oracle: str) -> list:
    failures = []
    seen = False
    for cell in _matching(cells, expectation):
        regret = cell.get("regret")
        if regret is None or not regret.get("graded"):
            continue
        seen = True
        value = regret["regret_x2"] / (2 * regret["graded"])
        if value > expectation.max:
            failures.append(
                f"{cell['workload']}/{cell['policy']}: {oracle} regret "
                f"{value:.4f} above ceiling {expectation.max}"
            )
    if not seen:
        return ["no graded decisions to check regret against"]
    return failures


def _check_belady_dominates(cells) -> list:
    belady = {
        (cell["workload"], cell["seed"]): cell["hit_rate"]
        for cell in cells if cell["policy"] == "belady"
    }
    failures = []
    for cell in cells:
        if cell["policy"] == "belady":
            continue
        optimum = belady.get((cell["workload"], cell["seed"]))
        if optimum is not None and cell["hit_rate"] > optimum + 1e-9:
            failures.append(
                f"{cell['workload']}/{cell['policy']}: hit rate "
                f"{cell['hit_rate']:.4f} exceeds Belady's {optimum:.4f}"
            )
    return failures


def evaluate_expectations(scenario, cells) -> list:
    """Check every declared expectation; returns one result row each.

    Each kind's schema admits only its own checks, so one dispatch serves
    both: ``hit_rate``/``speedup``/``belady_dominates`` are CPU checks,
    ``byte_hit_rate``/``object_hit_rate``/``beats`` object ones.
    """
    oracle = ("size-aware Belady" if _object_kind(scenario) is not None
              else "Belady")
    results = []
    for expectation in scenario.expect:
        check = expectation.check
        if check == "conservation":
            failures = [
                problem for cell in _matching(cells, expectation)
                for problem in _cell_problems(scenario, cell)
            ]
        elif check in ("hit_rate", "byte_hit_rate", "object_hit_rate"):
            failures = _check_rate(cells, expectation, check)
        elif check == "speedup":
            failures = _check_speedup(cells, expectation)
        elif check == "beats":
            failures = _check_beats(cells, expectation)
        elif check == "regret":
            failures = _check_regret(cells, expectation, oracle)
        else:  # belady_dominates (the schemas admit nothing else)
            failures = _check_belady_dominates(cells)
        results.append({
            "expect": expectation.as_dict(),
            "status": "pass" if not failures else "fail",
            "failures": failures,
        })
    return results


def check_report(payload: dict) -> list:
    """Every failure a report payload carries (failed cells, conservation,
    expectations)."""
    failures = [
        f"{cell['workload']}/{cell['policy']} (seed {cell['seed']}): "
        f"failed: {cell['error']}"
        for cell in payload.get("cells", ()) if cell["status"] == "failed"
    ]
    failures.extend(payload.get("conservation", {}).get("problems", ()))
    for row in payload.get("expectations", ()):
        failures.extend(row.get("failures", ()))
    return failures


def require_ok(scenario: Scenario, payload: dict) -> None:
    """Raise :class:`ExpectationFailure` unless the report is clean."""
    failures = check_report(payload)
    if failures:
        raise ExpectationFailure(scenario.name, failures)
