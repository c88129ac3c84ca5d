"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list``      — available workload models and replacement policies
* ``simulate``  — one workload under one policy, full result summary
* ``compare``   — one workload under several policies (+ optional Belady)
* ``sweep``     — one scenario (``--scenario``, or a whole ``--suite``
  under ``lru`` + ``--policies``): the per-cell table, expectations,
  geomean speedup over lru and the golden check.  Every sweep journals
  completed cells and writes ``report.json`` to a run directory, and
  ``--resume RUN_ID`` continues an interrupted run — see
  docs/reliability.md.  ``--jobs N`` parallelizes over processes;
  ``--cache-dir`` persists prepared workloads so repeat sweeps skip pass
  1; ``--metrics`` records telemetry to the run directory — see
  docs/observability.md
* ``metrics``   — render a run's recorded telemetry as tables
* ``replay``    — one workload under one policy; ``--decisions`` records a
  graded per-eviction decision log to a new run directory
* ``inspect``   — render a run's decision log: Figure 5-7 victim profiles,
  set-level eviction heatmap, Belady regret, worst decisions
  (``sweep --decisions[=SAMPLE_RATE]`` records the log during a sweep;
  see docs/observability.md)
* ``mpki``      — Figure-12-style demand-MPKI table
* ``mix``       — a 4-core workload mix (Figure 13 / §IV-D)
* ``table1``    — the hardware-overhead table
* ``train``     — train an RL agent on a workload (optionally save it)
* ``hillclimb`` — §III-B greedy feature selection
* ``trace``     — generate a workload trace and write it to a file
* ``validate``  — preflight-check trace files / saved agents / scenario
  files before a run (see docs/validation.md; ``sweep --sanitize
  {off,normal,strict}`` selects the policy-contract sanitizer mode,
  ``--strict`` is shorthand)
* ``scenario``  — the declarative scenario library (see docs/scenarios.md):
  ``list`` browses ``scenarios/``, ``diff`` renders the readable report
  diff against the golden, ``bless`` re-records goldens after an
  intentional behaviour change (``sweep --scenario`` runs one)
* ``bench``     — the replay phase split: the replay and objcache
  micro-benchmarks split each key's replay into phases and write
  ``BENCH_*.json`` snapshots; ``--compare`` regression-gates the rates
  against committed snapshots — see docs/observability.md
* ``fsck``      — audit durable artifacts (run directories, the prep
  cache, goldens, checkpoints) for truncation, torn writes and
  bit rot; ``--repair`` truncates torn journal tails and quarantines what
  cannot be re-derived — see docs/reliability.md
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro.cache.replacement import POLICY_REGISTRY
from repro.eval.metrics import mix_speedup, speedup_percent
from repro.eval.reporting import format_table
from repro.eval.runner import _prepared, compare_policies, replay, run_workload
from repro.eval.workloads import EvalConfig, suite_names
from repro.runs.checkpoint import CheckpointError
from repro.store.errors import ArtifactCorruptionError
from repro.traces.spec_models import ALL_WORKLOADS


def _add_eval_arguments(parser) -> None:
    parser.add_argument("--scale", type=int, default=16,
                        help="divide Table III cache sizes by this (default 16)")
    parser.add_argument("--length", type=int, default=30_000,
                        help="trace length in memory references")
    parser.add_argument("--seed", type=int, default=7)


def _eval_config(args) -> EvalConfig:
    return EvalConfig(scale=args.scale, trace_length=args.length, seed=args.seed)


def _policies_argument(parser, default) -> None:
    parser.add_argument("--policies", nargs="+", default=list(default),
                        help="replacement policies to evaluate")


# -- commands -----------------------------------------------------------------


def cmd_list(args) -> int:
    print("workload models:")
    for suite in ("spec2006", "cloudsuite"):
        print(f"  [{suite}]")
        for name in suite_names(suite):
            spec = ALL_WORKLOADS[name]
            patterns = "+".join(p.kind for p in spec.patterns)
            print(f"    {name:18s} {patterns}")
    print("\nreplacement policies:")
    for name in sorted(POLICY_REGISTRY):
        print(f"  {name}")
    return 0


def cmd_simulate(args) -> int:
    eval_config = _eval_config(args)
    trace = eval_config.trace(args.workload)
    result = run_workload(eval_config, trace, args.policy)
    print(f"workload: {args.workload}   policy: {args.policy}")
    print(f"  IPC:             {result.single_ipc:.4f}")
    print(f"  LLC hit rate:    {100 * result.llc_hit_rate:.2f}%")
    print(f"  demand hit rate: {100 * result.llc_demand_hit_rate:.2f}%")
    print(f"  demand MPKI:     {result.demand_mpki:.2f}")
    for key in ("accesses", "hits", "misses", "evictions", "dirty_evictions"):
        print(f"  llc {key}: {result.llc_stats[key]}")
    return 0


def cmd_compare(args) -> int:
    eval_config = _eval_config(args)
    trace = eval_config.trace(args.workload)
    results = compare_policies(
        eval_config, trace, args.policies, include_belady=args.belady
    )
    baseline_name = args.policies[0]
    baseline = results[baseline_name].single_ipc
    rows = []
    for name, result in results.items():
        rows.append({
            "policy": name,
            "ipc": round(result.single_ipc, 4),
            "hit%": round(100 * result.llc_hit_rate, 2),
            "mpki": round(result.demand_mpki, 2),
            f"vs {baseline_name}": f"{speedup_percent(result.single_ipc, baseline):+.2f}%",
        })
    print(format_table(
        rows, headers=["policy", "ipc", "hit%", "mpki", f"vs {baseline_name}"],
        title=f"{args.workload} ({len(trace)} references)",
    ))
    return 0


#: Default run-directory root for journaled sweeps.
DEFAULT_RUN_ROOT = ".repro-runs"

#: The run options a sweep's manifest records; ``--resume`` restores them.
_RUN_OPTIONS = ("jobs", "cache_dir", "timeout", "retries", "metrics",
                "decisions")

#: The flags each kind of ``repro sweep`` reads.  A flag counts as given
#: when it differs from its default, and a given flag that the sweep does
#: not read is an error that names it.
_EVERY_SWEEP = ("jobs", "timeout", "retries", "run_dir", "decisions")
_SWEEP_READS = {
    "suite": ("suite", "policies", "scale", "length", "seed", "sanitize",
              "cache_dir", "metrics") + _EVERY_SWEEP,
    "cpu_cache": ("scenario", "cache_dir", "metrics", "library", "goldens",
                  "no_golden_check") + _EVERY_SWEEP,
    "object_cache": ("scenario", "library", "goldens", "no_golden_check")
    + _EVERY_SWEEP,
    "resume": ("resume", "run_dir"),
}


def _flag(key: str) -> str:
    if key == "sanitize":
        return "--sanitize/--strict/--no-strict"
    return "--" + key.replace("_", "-")


def _check_sweep_flags(args, kind: str) -> None:
    """Reject every given flag a sweep of this kind does not read."""
    reads = _SWEEP_READS[kind]
    defaults = vars(build_parser().parse_args(["sweep"]))
    unread = [key for key in sorted(defaults)
              if key not in reads and getattr(args, key) != defaults[key]]
    if unread:
        label = {"suite": "--suite", "resume": "--resume"}.get(
            kind, f"--scenario {args.scenario} ({kind})")
        raise ValueError(
            f"sweep {label} does not read {', '.join(map(_flag, unread))} "
            f"(it reads only {', '.join(map(_flag, reads))})"
        )


def _suite_scenario(args):
    """The scenario ``--suite`` sweeps: ``lru`` then ``--policies`` over
    the suite's models, at ``--scale``/``--length``/``--seed``."""
    from repro.sanitize import resolve_mode
    from repro.scenarios import scenario_from_dict

    suite = args.suite or "spec2006"
    return scenario_from_dict({
        "name": f"suite-{suite}",
        "config": {"scale": args.scale, "trace_length": args.length,
                   "seed": args.seed},
        "workloads": suite_names(suite),
        "policies": ["lru"] + [p for p in args.policies if p != "lru"],
        # Resolved once, so REPRO_SANITIZE applies and --resume keeps it.
        "sanitize": resolve_mode(args.sanitize),
    }, source=f"--suite {suite}")


def _write_sweep_metrics(run, seed_reports) -> None:
    """Persist + print the deterministic telemetry payload for one sweep."""
    from repro.telemetry.export import (
        build_payload,
        render_metrics,
        write_metrics_json,
    )
    from repro.telemetry.instruments import sweep_snapshot, sweep_timings
    from repro.telemetry.registry import merge_snapshots

    timings, ops = {}, Counter()
    for seed, report in seed_reports:
        prefix = f"seed {seed} " if len(seed_reports) > 1 else ""
        for key, value in sweep_timings(report).items():
            timings[prefix + key] = value
        ops.update(report.pool_stats)
    payload = build_payload(
        "sweep",
        merge_snapshots(sweep_snapshot(report) for _, report in seed_reports),
        timings=timings,
        ops=dict(ops),
        meta={"run_id": run.run_id, "args": run.manifest.get("args", {})},
    )
    write_metrics_json(run.metrics_path, payload)
    print(render_metrics(payload))
    print(f"metrics written to {run.metrics_path}", file=sys.stderr)


def _write_sweep_decisions(run, seed_reports) -> None:
    """Persist + summarize the sweep's decision logs, when it kept any."""
    from repro.eval.inspect import regret_rows
    from repro.telemetry.decisions import write_decisions_jsonl

    cells = [dict(payload, seed=seed) for seed, report in seed_reports
             for payload in report.decision_payloads()]
    if not cells:
        return
    missing = sum(cell.ok and not cell.decisions
                  for _, report in seed_reports for cell in report.cells)
    if missing:
        print(f"note: {missing} cell(s) adopted from the journal carry no "
              f"decision log", file=sys.stderr)
    write_decisions_jsonl(run.decisions_path, cells)
    rows = regret_rows(cells)
    print(format_table(
        rows, headers=list(rows[0]),
        title=f"Belady regret per cell (decision sample rate "
              f"{cells[0]['sample_rate']})",
    ))
    print(f"decision logs written to {run.decisions_path} "
          f"(drill down with: repro inspect {run.run_id})", file=sys.stderr)


def _golden_regressed(scenario, payload, goldens) -> bool:
    """Print the golden verdict of a ``golden: true`` scenario's report."""
    from repro.scenarios import compare_to_golden

    diff = compare_to_golden(scenario.name, payload, root=goldens)
    if diff is None:
        print("no golden recorded yet (pin one with: repro scenario "
              f"bless {scenario.name})", file=sys.stderr)
    elif diff:
        print("\ngolden regression:")
        for line in diff:
            print(f"  {line}")
        return True
    else:
        print("golden check: report matches the blessed digest")
    return False


def cmd_sweep(args) -> int:
    """``repro sweep``: run one scenario, journaled into a run directory.

    The scenario is ``--scenario``'s, one built from ``--suite``, or the one
    a run directory's manifest holds (``--resume``).  Every completed cell
    is journaled, and the run directory gets ``report.json``: the canonical
    report payload, which depends on the scenario alone.  ``--metrics`` and
    ``--decisions`` add side artifacts next to it.
    """
    from repro import telemetry
    from repro.eval.parallel import _check_options
    from repro.runs.supervisor import SweepInterrupted, create_run, load_run
    from repro.scenarios import resolve_scenario, scenario_from_dict
    from repro.scenarios.runner import scenario_report, sweep_scenario

    if args.scenario:
        scenario = resolve_scenario(args.scenario, root=args.library)
        _check_sweep_flags(args, scenario.scenario_kind)
    elif args.resume:
        _check_sweep_flags(args, "resume")
    else:
        _check_sweep_flags(args, "suite")
        scenario = _suite_scenario(args)
    run_root = args.run_dir or DEFAULT_RUN_ROOT
    if args.resume:
        run = load_run(run_root, args.resume)
        if "scenario" not in run.manifest:
            raise ValueError(
                f"run {run.run_id} records no scenario in its manifest, so "
                f"it cannot be resumed"
            )
        # The manifest wins: the resumed sweep must rebuild the same grid
        # for a byte-identical report.
        scenario = scenario_from_dict(run.manifest["scenario"],
                                      source=str(run.path))
        for key, value in run.manifest.get("args", {}).items():
            setattr(args, key, value)
        run.mark("running")
        print(f"resuming {run.run_id} "
              f"({len(run.journal())} journal entries)", file=sys.stderr)
    else:
        _check_options(args.jobs, args.decisions)  # before the run exists
        run = create_run(run_root, {
            "kind": "sweep",
            "scenario": scenario.as_dict(),
            "args": {key: getattr(args, key) for key in _RUN_OPTIONS},
        })
        print(f"run {run.run_id} -> {run.path} "
              f"(resumable with --resume {run.run_id})", file=sys.stderr)

    if args.metrics:
        telemetry.configure(
            registry=telemetry.MetricsRegistry(), span_path=run.spans_path
        )
    try:
        with telemetry.span("sweep", run_id=run.run_id,
                            scenario=scenario.name):
            seed_reports = sweep_scenario(
                scenario,
                jobs=args.jobs,
                cache_dir=args.cache_dir,
                progress=lambda message: print(message, file=sys.stderr),
                decisions=args.decisions,
                journal=run.journal(),
                timeout=args.timeout,
                retries=args.retries,
            )
    except SweepInterrupted as interrupt:
        run.mark("interrupted")
        telemetry.shutdown()
        print(f"\ninterrupted: {interrupt.completed} completed cell(s) "
              f"journaled in {run.journal_path}\nresume with: "
              f"repro sweep --run-dir {run_root} --resume {run.run_id}",
              file=sys.stderr)
        return 130
    telemetry.shutdown()
    payload = scenario_report(scenario, seed_reports)
    run.write_report(payload)
    if args.metrics:
        _write_sweep_metrics(run, seed_reports)
    _write_sweep_decisions(run, seed_reports)
    _print_scenario_report(scenario, payload)
    if args.cache_dir:
        prep = Counter()
        for _, report in seed_reports:
            prep.update(report.prep_cache_stats)
        print(f"\nprep cache: {prep['hits']} hit(s), {prep['misses']} "
              f"miss(es), {prep['corrupt']} corrupt")
    regressed = (scenario.golden and not args.no_golden_check
                 and _golden_regressed(scenario, payload, args.goldens))
    failed = any(cell["status"] == "failed" for cell in payload["cells"])
    run.mark("failed" if failed else "complete")
    return 0 if payload["ok"] and not regressed else 1


def cmd_metrics(args) -> int:
    from pathlib import Path

    from repro.runs.supervisor import SPANS_NAME
    from repro.telemetry.export import load_metrics_json, render_metrics
    from repro.telemetry.spans import read_spans, summarize_spans

    path = Path(args.run)
    if not path.exists():
        path = Path(DEFAULT_RUN_ROOT) / args.run
    if not path.exists():
        from repro.runs.supervisor import list_runs

        known = ", ".join(list_runs(DEFAULT_RUN_ROOT)) or "none"
        raise ValueError(
            f"no run directory or metrics file at {args.run!r} "
            f"(known runs under {DEFAULT_RUN_ROOT}: {known})"
        )
    payload = load_metrics_json(path)
    print(render_metrics(payload))
    spans_path = (path if path.is_dir() else path.parent) / SPANS_NAME
    if spans_path.is_file():
        summary = summarize_spans(read_spans(spans_path))
        if summary:
            rows = [
                {
                    "span": name,
                    "count": stats["count"],
                    "total_s": round(stats["total_s"], 3),
                    "mean_s": round(stats["mean_s"], 4),
                    "max_s": round(stats["max_s"], 4),
                }
                for name, stats in sorted(summary.items())
            ]
            print(format_table(
                rows, headers=["span", "count", "total_s", "mean_s", "max_s"],
                title=f"spans ({spans_path.name})",
            ))
    return 0


def cmd_replay(args) -> int:
    from repro.runs.supervisor import create_run
    from repro.telemetry.decisions import DecisionTrace, write_decisions_jsonl

    if args.decisions is not None and args.decisions < 1:
        raise ValueError(
            f"--decisions sample rate must be >= 1, got {args.decisions}"
        )
    eval_config = _eval_config(args)
    trace = eval_config.trace(args.workload)
    prepared = _prepared(eval_config, trace, 1, None)
    decisions = None
    if args.decisions:
        from repro.traces.oracle import NextUseOracle

        decisions = DecisionTrace(
            workload=args.workload,
            policy=args.policy,
            sample_rate=args.decisions,
            oracle=NextUseOracle(prepared.llc_line_stream),
        )
    result = replay(prepared, args.policy, decisions=decisions)
    print(f"workload: {args.workload}   policy: {args.policy}")
    print(f"  IPC:          {result.single_ipc:.4f}")
    print(f"  LLC hit rate: {100 * result.llc_hit_rate:.2f}%")
    if decisions is None:
        return 0
    summary = decisions.summary()
    graded = summary["graded"]
    if graded:
        print(f"  evictions:    {summary['evictions']} "
              f"({summary['optimal']} optimal / {summary['neutral']} neutral "
              f"/ {summary['harmful']} harmful)")
        print(f"  Belady regret: {summary['regret_x2'] / (2 * graded):.4f}")
    run = create_run(args.run_dir or DEFAULT_RUN_ROOT, {
        "kind": "replay",
        "args": {key: getattr(args, key)
                 for key in ("workload", "policy", "scale", "length",
                             "seed", "decisions")},
    })
    cells = [decisions.cell_payload()]
    write_decisions_jsonl(run.decisions_path, cells)
    run.mark("complete")
    print(f"decision log written to {run.decisions_path} "
          f"(drill down with: repro inspect {run.run_id})", file=sys.stderr)
    return 0


def cmd_inspect(args) -> int:
    from repro.eval.inspect import (
        load_decision_cells,
        render_inspection,
        resolve_decision_log,
    )

    log_path = resolve_decision_log(args.run, default_root=DEFAULT_RUN_ROOT)
    print(f"reading {log_path}", file=sys.stderr)
    cells = load_decision_cells(
        log_path, workload=args.workload, policy=args.policy
    )
    print(render_inspection(cells, top=args.top))
    return 0


def cmd_bench(args) -> int:
    """``repro bench``: split each bench key's replay into phases and
    write the ``BENCH_*.json`` snapshots.

    ``--compare BASELINE`` (a directory of snapshots or one snapshot)
    regression-gates the rates: exit 1 on a regression, with a per-phase
    delta table naming the phase that got slower; exit 2 when no bench
    that runs has a baseline.
    """
    from repro.eval.bench import BENCHES, compare, resolve_baseline, write_bench

    names = list(BENCHES) if args.which == "all" else [args.which]
    # Read the baseline before this run writes its snapshots, so
    # ``--output-dir D --compare D`` gates against the previous ones.
    baseline, baseline_notes = None, []
    if args.compare:
        try:
            baseline, baseline_notes = resolve_baseline(args.compare)
        except (OSError, ValueError) as error:
            print(f"bench --compare: {error}", file=sys.stderr)
            return 2
        if not baseline.keys() & set(names):
            print(f"bench --compare: {args.compare} holds no baseline for "
                  f"{' or '.join(names)}", file=sys.stderr)
            return 2
    current = {}
    for name in names:
        payload, path = write_bench(name, output_dir=args.output_dir)
        current[name] = payload
        rows = [
            {"policy": policy, payload["unit"]: rate}
            for policy, rate in payload["rates"].items()
        ]
        print(format_table(rows, headers=["policy", payload["unit"]],
                           title=f"bench {name}"))
        print(f"wrote {path}")
    if baseline is None:
        return 0
    report = compare(current, baseline, tolerance=args.tolerance)
    report.notes.extend(baseline_notes)
    print(report.format())
    return 0 if report.ok else 1


def cmd_fsck(args) -> int:
    """``repro fsck``: artifact-integrity check with typed exit codes."""
    import json as json_mod

    from repro.store.fsck import fsck_path

    target = Path(args.target)
    if not target.exists():
        # Maybe it's a run id: resolve under the run root.
        candidate = Path(args.run_dir or DEFAULT_RUN_ROOT) / args.target
        if candidate.is_dir():
            target = candidate
        else:
            print(f"fsck: no file, directory, or run named "
                  f"{args.target!r}", file=sys.stderr)
            return 3
    report = fsck_path(target, repair=args.repair)
    if args.json:
        print(json_mod.dumps(report.as_dict(), indent=1, sort_keys=True))
    else:
        print(report.format())
        if report.unresolved and not args.repair:
            print("re-run with --repair to truncate damaged journal tails "
                  "and quarantine unrecoverable artifacts", file=sys.stderr)
    return report.exit_code()


def cmd_mpki(args) -> int:
    from repro.eval.experiments import mpki_comparison

    eval_config = _eval_config(args)
    results = mpki_comparison(
        eval_config, policies=tuple(args.policies), min_mpki=args.min_mpki,
        suite=args.suite,
    )
    policies = ["lru"] + args.policies
    rows = [
        {"workload": workload, **{p: round(row[p], 2) for p in policies}}
        for workload, row in results.items()
    ]
    print(format_table(rows, headers=["workload"] + policies,
                       title=f"demand MPKI (LRU MPKI > {args.min_mpki})"))
    return 0


def cmd_mix(args) -> int:
    eval_config = _eval_config(args)
    trace = eval_config.mix_trace(args.workloads)
    baseline = run_workload(eval_config, trace, "lru", num_cores=len(args.workloads))
    print(f"mix: {trace.name}")
    print(f"LRU per-core IPC: {[round(v, 3) for v in baseline.ipc]}")
    for policy in args.policies:
        result = run_workload(
            eval_config, trace, policy, num_cores=len(args.workloads)
        )
        speedup = mix_speedup(result.ipc, baseline.ipc)
        print(f"  {policy:10s} mix speedup {100 * (speedup - 1):+.2f}%")
    return 0


def cmd_table1(args) -> int:
    from repro.eval.experiments import table1_overhead

    rows = [
        {
            "policy": row.policy,
            "uses_pc": "Yes" if row.uses_pc else "No",
            "kib": round(row.kib, 2),
            "paper_kib": row.paper_kib,
        }
        for row in table1_overhead()
    ]
    print(format_table(rows, headers=["policy", "uses_pc", "kib", "paper_kib"],
                       title="Table I — storage overhead, 16-way 2MB LLC"))
    return 0


def cmd_train(args) -> int:
    from repro.rl import (
        AgentReplacementPolicy,
        TrainerConfig,
        feature_importance,
        train_on_stream,
    )
    from repro.rl.trainer import save_agent

    eval_config = _eval_config(args)
    trace = eval_config.trace(args.workload)
    prepared = _prepared(eval_config, trace, 1, None)
    config = TrainerConfig(
        hidden_size=args.hidden, epochs=args.epochs, seed=args.seed
    )
    print(f"training on {args.workload} "
          f"({len(prepared.llc_records)} LLC accesses) ...", file=sys.stderr)
    registry = None
    if args.metrics:
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
    trained = train_on_stream(
        prepared.llc_config,
        prepared.llc_records,
        config,
        checkpoint=args.checkpoint,
        resume=args.resume,
        registry=registry,
    )
    if registry is not None:
        from repro.telemetry.export import (
            build_payload,
            render_metrics,
            write_metrics_json,
        )

        payload = build_payload(
            "train",
            registry.snapshot(),
            meta={"workload": args.workload, "epochs": args.epochs,
                  "hidden": args.hidden, "seed": args.seed},
        )
        write_metrics_json(args.metrics, payload)
        print(render_metrics(payload))
        print(f"metrics written to {args.metrics}", file=sys.stderr)

    adapter = AgentReplacementPolicy(trained.agent, trained.extractor, train=False)
    rl_result = replay(prepared, adapter, detailed=True)
    lru_result = replay(prepared, "lru")
    print(f"LLC hit rate: agent {100 * rl_result.llc_hit_rate:.2f}% "
          f"vs LRU {100 * lru_result.llc_hit_rate:.2f}%")
    print("top features by |weight|:")
    importances = feature_importance(trained.agent.network, trained.extractor)
    for name, value in sorted(importances.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {name:26s} {value:.4f}")
    if args.save:
        save_agent(trained, args.save)
        print(f"agent saved to {args.save}")
    return 0


def cmd_hillclimb(args) -> int:
    from repro.rl.hill_climbing import hill_climb
    from repro.rl.trainer import TrainerConfig, llc_stream_records

    eval_config = _eval_config(args)
    llc_config = eval_config.hierarchy(num_cores=1).llc
    stream = llc_stream_records(eval_config, args.workload)[: args.budget]
    config = TrainerConfig(
        hidden_size=16, epochs=1, max_records=args.budget, seed=args.seed
    )
    result = hill_climb(
        llc_config, [stream], config=config, max_features=args.max_features
    )
    for step in result.steps:
        print(f"+ {step.added_feature:24s} -> hit rate {step.score:.3f}")
    print(f"selected: {result.selected}")
    return 0


def cmd_report(args) -> int:
    from repro.eval.report import write_report

    eval_config = _eval_config(args)
    write_report(
        args.output,
        eval_config,
        include_multicore=args.multicore,
        num_mixes=args.mixes,
    )
    print(f"report written to {args.output}")
    return 0


def cmd_trace(args) -> int:
    from repro.traces.trace_io import save_trace

    eval_config = _eval_config(args)
    trace = eval_config.trace(args.workload)
    save_trace(trace, args.output)
    print(f"wrote {len(trace)} records ({trace.instruction_count} "
          f"instructions) to {args.output}")
    return 0


def cmd_validate(args) -> int:
    from repro.objcache.trace_io import SUFFIXES as OBJTRACE_SUFFIXES
    from repro.sanitize.preflight import (
        validate_agent_file,
        validate_bench_file,
        validate_object_trace_file,
        validate_scenario_file,
        validate_trace_file,
    )

    failures = 0
    for path in args.paths:
        kind = args.kind
        if kind == "auto":
            name = str(path)
            basename = Path(path).name
            if name.endswith(".npz"):
                kind = "agent"
            elif name.endswith(OBJTRACE_SUFFIXES):
                kind = "objtrace"
            elif basename.startswith("BENCH_") and name.endswith(".json"):
                kind = "bench"
            elif name.endswith((".yaml", ".yml", ".json")):
                kind = "scenario"
            else:
                kind = "trace"
        if kind == "agent":
            report = validate_agent_file(path)
        elif kind == "objtrace":
            report = validate_object_trace_file(path)
        elif kind == "bench":
            report = validate_bench_file(path)
        elif kind == "scenario":
            report = validate_scenario_file(path)
        else:
            report = validate_trace_file(path, quarantine=args.quarantine)
        print(report.format())
        if not report.ok:
            failures += 1
    return 1 if failures else 0


# -- scenarios ----------------------------------------------------------------


def _scenario_library(args):
    from repro.scenarios import load_library

    return load_library(args.library)


#: The report table's metric columns, per scenario kind.  (IPC and regret
#: are strings because ``format_table`` renders floats to two decimals.)
_REPORT_COLUMNS = {
    "cpu_cache": {
        "ipc": lambda cell: f"{cell['ipc'][0]:.4f}",
        "hit%": lambda cell: round(100 * cell["hit_rate"], 2),
        "mpki": lambda cell: round(cell["demand_mpki"], 2),
    },
    "object_cache": {
        "byte-hit%": lambda cell: round(100 * cell["byte_hit_rate"], 2),
        "obj-hit%": lambda cell: round(100 * cell["object_hit_rate"], 2),
        "evictions": lambda cell: cell["stats"]["evictions"],
    },
}


def _cell_label(cell) -> str:
    return f"{cell['workload']}/{cell['policy']} (seed {cell['seed']})"


def _print_scenario_report(scenario, payload) -> None:
    """The terminal view of a report payload, one table for both kinds."""
    from repro.scenarios import report_digest
    from repro.scenarios.runner import speedup_over

    columns = _REPORT_COLUMNS[scenario.scenario_kind]
    rows = []
    for cell in payload["cells"]:
        row = {"workload": cell["workload"], "policy": cell["policy"],
               "seed": cell["seed"]}
        for name, value in columns.items():
            row[name] = "-" if cell["status"] == "failed" else value(cell)
        regret = cell.get("regret")
        if regret and regret.get("graded"):
            row["regret"] = \
                f"{regret['regret_x2'] / (2 * regret['graded']):.4f}"
        rows.append(row)
    headers = ["workload", "policy", "seed", *columns]
    if any("regret" in row for row in rows):
        headers.append("regret")
    print(format_table(rows, headers=headers,
                       title=scenario.title or scenario.name))
    degraded = [c for c in payload["cells"] if c["status"] == "degraded"]
    if degraded:
        print(f"\n{len(degraded)} cell(s) degraded to LRU by the policy "
              f"sanitizer (numbers are LRU's from the first violation on):")
        for cell in degraded:
            print(f"  {_cell_label(cell)}: {cell['violations'][0]}")
    failed = [c for c in payload["cells"] if c["status"] == "failed"]
    if failed:
        print(f"\n{len(failed)} cell(s) failed:")
        for cell in failed:
            print(f"  {_cell_label(cell)}: {cell['error']}")
    for result in payload["expectations"]:
        status = "PASS" if result["status"] == "pass" else "FAIL"
        print(f"  expect {result['expect']}: {status}")
        for failure in result["failures"]:
            print(f"    - {failure}")
    conservation = payload["conservation"]
    if not conservation["ok"]:
        print("  conservation violations:")
        for problem in conservation["problems"]:
            print(f"    - {problem}")
    if scenario.scenario_kind == "cpu_cache" and "lru" in scenario.policies:
        ran = [cell for cell in payload["cells"] if cell["status"] != "failed"]
        print("\ngeomean speedup over lru:")
        for policy in scenario.policies:
            if policy != "lru":
                speedup = speedup_over(ran, "lru", policy)
                print(f"  {policy:10s} " + ("(no results)" if speedup is None
                                            else f"{speedup:+.2f}%"))
    print(f"report digest: {report_digest(payload)}")


def cmd_scenario_list(args) -> int:
    library = _scenario_library(args)
    if not library:
        print("no scenarios found (looked under "
              f"{args.library or 'the default library dir'})", file=sys.stderr)
        return 1
    rows = []
    for name in sorted(library):
        scenario = library[name]
        rows.append({
            "name": name,
            "figure": scenario.figure or "-",
            "workloads": len(scenario.workload_names),
            "policies": len(scenario.policies),
            "seeds": len(scenario.run_seeds),
            "golden": "yes" if scenario.golden else "-",
            "title": scenario.title[:48] or "-",
        })
    print(format_table(
        rows,
        headers=["name", "figure", "workloads", "policies", "seeds",
                 "golden", "title"],
        title=f"scenario library ({len(library)} scenarios)",
    ))
    return 0


def cmd_scenario_diff(args) -> int:
    import json as json_module

    from repro.scenarios import (
        diff_reports,
        read_golden,
        resolve_scenario,
        run_scenario,
    )

    scenario = resolve_scenario(args.name, root=args.library)
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            document = json_module.load(handle)
        baseline = document.get("report", document)
        source = args.against
    else:
        stored = read_golden(scenario.name, root=args.goldens)
        if stored is None:
            raise ValueError(
                f"no golden recorded for {scenario.name!r} (bless one first "
                "or pass --against REPORT.json)"
            )
        baseline = stored["report"]
        source = f"golden {scenario.name}"
    payload = run_scenario(scenario, jobs=args.jobs)
    lines = diff_reports(baseline, payload)
    if not lines:
        print(f"no differences against {source}")
        return 0
    print(f"differences against {source}:")
    for line in lines:
        print(f"  {line}")
    return 1


def cmd_scenario_bless(args) -> int:
    from repro.scenarios import resolve_scenario, run_scenario, write_golden

    if args.all:
        library = _scenario_library(args)
        scenarios = [library[name] for name in sorted(library)
                     if library[name].golden]
        if not scenarios:
            print("no scenarios are marked 'golden: true'", file=sys.stderr)
            return 1
    elif args.names:
        scenarios = [resolve_scenario(name, root=args.library)
                     for name in args.names]
    else:
        raise ValueError("give scenario names or --all")
    for scenario in scenarios:
        payload = run_scenario(scenario, jobs=args.jobs)
        path = write_golden(scenario.name, payload, root=args.goldens)
        print(f"blessed {scenario.name} -> {path}")
    return 0


def cmd_scenario(args) -> int:
    handlers = {
        "list": cmd_scenario_list,
        "diff": cmd_scenario_diff,
        "bless": cmd_scenario_bless,
    }
    return handlers[args.scenario_command](args)


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RLR cache-replacement reproduction (HPCA 2021)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list workloads and policies")

    simulate = commands.add_parser("simulate", help="run one workload/policy")
    simulate.add_argument("workload")
    simulate.add_argument("--policy", default="rlr")
    _add_eval_arguments(simulate)

    compare = commands.add_parser("compare", help="compare policies on a workload")
    compare.add_argument("workload")
    _policies_argument(compare, ("lru", "drrip", "ship++", "rlr"))
    compare.add_argument("--belady", action="store_true",
                         help="include the offline-optimal policy")
    _add_eval_arguments(compare)

    sweep = commands.add_parser(
        "sweep", help="run a scenario (or a whole suite) in a resumable run "
                      "directory"
    )
    # --scenario, --suite and --resume exclude each other through the flag
    # table (_SWEEP_READS), which names every unread flag at once.
    sweep.add_argument("--scenario", default=None, metavar="NAME",
                       help="sweep a declarative scenario (library name or "
                            "file path)")
    sweep.add_argument("--suite", choices=("spec2006", "cloudsuite"),
                       default=None,
                       help="sweep lru and --policies over a suite's models "
                            "(the default, with spec2006)")
    sweep.add_argument("--resume", metavar="RUN_ID", default=None,
                       help="resume an interrupted run (e.g. run-0001) with "
                            "the scenario and options its manifest records; "
                            "journaled cells are not re-run")
    _policies_argument(sweep, ("drrip", "ship++", "rlr"))
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (default 1)")
    sweep.add_argument("--cache-dir", default=None,
                       help="persist prepared workloads to this directory "
                            "(repeat sweeps skip pass 1)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-cell wall-clock watchdog in seconds "
                            "(hung workers are killed and retried)")
    sweep.add_argument("--retries", type=int, default=0,
                       help="retries for crashed/timed-out cells "
                            "(exponential backoff with jitter)")
    sweep.add_argument("--run-dir", default=None,
                       help="root for run directories (journal + "
                            f"report.json; default {DEFAULT_RUN_ROOT})")
    sweep.add_argument("--metrics", action="store_true",
                       help="record telemetry: print a counters/timings "
                            "summary, write metrics.json + spans.jsonl to "
                            "the run directory (see docs/observability.md)")
    sweep.add_argument("--sanitize", choices=("off", "normal", "strict"),
                       default=None,
                       help="policy-contract sanitizer mode (default: "
                            "REPRO_SANITIZE or 'normal'; see "
                            "docs/validation.md)")
    sweep.add_argument("--strict", dest="sanitize", action="store_const",
                       const="strict",
                       help="shorthand for --sanitize strict (violations "
                            "fail the cell with a typed error)")
    sweep.add_argument("--no-strict", dest="sanitize", action="store_const",
                       const="normal",
                       help="shorthand for --sanitize normal (violations "
                            "degrade the cell to LRU)")
    sweep.add_argument("--decisions", nargs="?", const=1, type=int,
                       default=None, metavar="SAMPLE_RATE",
                       help="record per-eviction decision logs with Belady "
                            "regret grading (decisions.jsonl in the run "
                            "directory; optional value keeps "
                            "every Nth event snapshot, aggregates always "
                            "cover all evictions; see repro inspect)")
    sweep.add_argument("--library", default=None, metavar="DIR",
                       help="scenario library root for --scenario (default: "
                            "scenarios/ or REPRO_SCENARIO_DIR)")
    sweep.add_argument("--goldens", default=None, metavar="DIR",
                       help="golden-report directory (default: "
                            "tests/goldens/ or REPRO_GOLDEN_DIR)")
    sweep.add_argument("--no-golden-check", action="store_true",
                       help="skip the golden-digest comparison of a "
                            "'golden: true' scenario")
    _add_eval_arguments(sweep)

    metrics = commands.add_parser(
        "metrics", help="render a run's recorded telemetry"
    )
    metrics.add_argument("run",
                         help="run directory, metrics.json path, or a run id "
                              f"under {DEFAULT_RUN_ROOT} (e.g. run-0001)")

    replay_cmd = commands.add_parser(
        "replay", help="replay one workload/policy, optionally tracing "
                       "every eviction decision"
    )
    replay_cmd.add_argument("workload")
    replay_cmd.add_argument("--policy", default="rlr")
    replay_cmd.add_argument("--decisions", nargs="?", const=1, type=int,
                            default=None, metavar="SAMPLE_RATE",
                            help="record a Belady-graded decision log to a "
                                 "new run directory (see repro inspect)")
    replay_cmd.add_argument("--run-dir", default=None,
                            help="root for run directories "
                                 f"(default {DEFAULT_RUN_ROOT})")
    _add_eval_arguments(replay_cmd)

    inspect = commands.add_parser(
        "inspect", help="render a run's decision log (victim profiles, "
                        "regret, worst decisions)"
    )
    inspect.add_argument("run",
                         help="run directory, decisions.jsonl path, or "
                              f"a run id under {DEFAULT_RUN_ROOT} "
                              "(e.g. run-0001)")
    inspect.add_argument("--workload", default=None,
                         help="only cells whose workload name contains this")
    inspect.add_argument("--policy", default=None,
                         help="only cells whose policy name contains this")
    inspect.add_argument("--top", type=int, default=10,
                         help="worst decisions to show per cell (default 10)")

    bench = commands.add_parser(
        "bench", help="replay phase split: BENCH_*.json snapshots and a "
                      "regression gate"
    )
    bench.add_argument("which", nargs="?", default="all",
                       choices=("all", "replay", "objcache"),
                       help="which benchmark to run (default all)")
    bench.add_argument("--output-dir", default=".",
                       help="where to write BENCH_*.json (default: cwd)")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="regression-gate against a baseline (a "
                            "directory of BENCH_*.json, or one snapshot); "
                            "exits 1 on regression")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="override the gate's relative noise "
                            "threshold (a fraction, e.g. 0.5 = 50%%)")

    fsck = commands.add_parser(
        "fsck",
        help="verify (and repair) the integrity of durable artifacts",
        description=(
            "Check a run directory, prep-cache directory, goldens "
            "directory, or single artifact file for truncation, torn "
            "writes, bit rot, and cross-artifact manifest mismatches. "
            "Exit codes: 0 = clean; 1 = corruption detected and still "
            "present; 2 = corruption found and every instance repaired "
            "or quarantined; 3 = usage error (no such target)."
        ),
    )
    fsck.add_argument("target",
                      help="path to check, or a run id under --run-dir "
                           "(e.g. run-0001)")
    fsck.add_argument("--repair", action="store_true",
                      help="repair what is re-derivable (truncate damaged "
                           "journal tails, refresh stale manifest digests) "
                           "and quarantine the rest; never deletes")
    fsck.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")
    fsck.add_argument("--run-dir", default=None,
                      help=f"run-directory root used to resolve run ids "
                           f"(default {DEFAULT_RUN_ROOT})")

    mpki = commands.add_parser("mpki", help="Figure-12-style MPKI table")
    mpki.add_argument("--suite", choices=("spec2006", "cloudsuite"),
                      default="spec2006")
    mpki.add_argument("--min-mpki", type=float, default=3.0)
    _policies_argument(mpki, ("drrip", "rlr"))
    _add_eval_arguments(mpki)

    mix = commands.add_parser("mix", help="run a multicore workload mix")
    mix.add_argument("workloads", nargs=4, metavar="WORKLOAD")
    _policies_argument(mix, ("drrip", "rlr"))
    _add_eval_arguments(mix)

    commands.add_parser("table1", help="hardware-overhead table")

    train = commands.add_parser("train", help="train an RL agent")
    train.add_argument("workload")
    train.add_argument("--hidden", type=int, default=64)
    train.add_argument("--epochs", type=int, default=1)
    train.add_argument("--save", help="save the trained agent to this .npz")
    train.add_argument("--checkpoint", default=None,
                       help="write a full training checkpoint (agent, replay "
                            "buffer, RNGs, epoch) here after every epoch")
    train.add_argument("--resume", action="store_true",
                       help="restore --checkpoint if it exists and continue "
                            "from its epoch (bit-identical to uninterrupted)")
    train.add_argument("--metrics", metavar="PATH", default=None,
                       help="record per-epoch training telemetry (loss, "
                            "epsilon, agreement-with-OPT) to this "
                            "metrics.json")
    _add_eval_arguments(train)

    hillclimb = commands.add_parser("hillclimb", help="feature selection")
    hillclimb.add_argument("workload")
    hillclimb.add_argument("--budget", type=int, default=4000,
                           help="LLC accesses per training run")
    hillclimb.add_argument("--max-features", type=int, default=4)
    _add_eval_arguments(hillclimb)

    trace = commands.add_parser("trace", help="generate and save a trace")
    trace.add_argument("workload")
    trace.add_argument("output")
    _add_eval_arguments(trace)

    report = commands.add_parser("report", help="write a full markdown report")
    report.add_argument("output")
    report.add_argument("--multicore", action="store_true")
    report.add_argument("--mixes", type=int, default=3)
    _add_eval_arguments(report)

    validate = commands.add_parser(
        "validate", help="preflight-check trace files / saved agents"
    )
    validate.add_argument("paths", nargs="+", metavar="PATH",
                          help="trace (.csv/.csv.gz/.bin), object trace "
                               "(.objtrace/.objcsv), agent (.npz), "
                               "scenario (.yaml/.json), or bench "
                               "(BENCH_*.json) files to check")
    validate.add_argument("--kind",
                          choices=("auto", "trace", "objtrace", "agent",
                                   "scenario", "bench"),
                          default="auto",
                          help="what the paths are (auto: .npz = agent, "
                               ".objtrace/.objcsv = object trace, "
                               "BENCH_* = bench, .yaml/.yml/.json = "
                               "scenario, anything else = trace)")
    validate.add_argument("--quarantine", action="store_true",
                          help="report bad trace records as warnings, the "
                               "way a quarantining load would skip them")

    scenario = commands.add_parser(
        "scenario", help="browse / diff / bless declarative scenarios"
    )
    scenario_commands = scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    def _scenario_common(sub, golden_dir: bool = True) -> None:
        sub.add_argument("--library", default=None, metavar="DIR",
                         help="scenario library root (default: scenarios/ "
                              "or REPRO_SCENARIO_DIR)")
        if golden_dir:
            sub.add_argument("--goldens", default=None, metavar="DIR",
                             help="golden-report directory (default: "
                                  "tests/goldens/ or REPRO_GOLDEN_DIR)")
            sub.add_argument("--jobs", type=int, default=1,
                             help="worker processes for the sweep")

    scenario_list = scenario_commands.add_parser(
        "list", help="browse the scenario library"
    )
    _scenario_common(scenario_list, golden_dir=False)

    scenario_diff = scenario_commands.add_parser(
        "diff", help="readable report diff against the golden (or a report)"
    )
    scenario_diff.add_argument("name",
                               help="scenario name (library) or file path")
    _scenario_common(scenario_diff)
    scenario_diff.add_argument("--against", metavar="REPORT.json",
                               default=None,
                               help="diff against this saved report instead "
                                    "of the golden")

    scenario_bless = scenario_commands.add_parser(
        "bless", help="re-record golden reports (after intended changes)"
    )
    scenario_bless.add_argument("names", nargs="*", metavar="NAME",
                                help="scenarios to bless (default: --all)")
    _scenario_common(scenario_bless)
    scenario_bless.add_argument("--all", action="store_true",
                                help="bless every scenario marked "
                                     "'golden: true'")

    return parser


_COMMANDS = {
    "list": cmd_list,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "metrics": cmd_metrics,
    "replay": cmd_replay,
    "inspect": cmd_inspect,
    "bench": cmd_bench,
    "fsck": cmd_fsck,
    "mpki": cmd_mpki,
    "mix": cmd_mix,
    "table1": cmd_table1,
    "train": cmd_train,
    "hillclimb": cmd_hillclimb,
    "trace": cmd_trace,
    "report": cmd_report,
    "validate": cmd_validate,
    "scenario": cmd_scenario,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except ValueError as error:
        # Bad user input (unknown workload/policy, invalid config): print
        # the message, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (ArtifactCorruptionError, CheckpointError) as error:
        # Corrupt durable state (torn/bit-rotted checkpoint, journal,
        # golden): a typed message plus the repair hint, never a
        # traceback.
        print(f"error: {error}", file=sys.stderr)
        print("hint: `python -m repro fsck <path> --repair` audits and "
              "repairs durable artifacts", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
