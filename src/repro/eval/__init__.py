"""Experiment harness: workloads, runner, metrics, and per-figure experiments."""

from repro.eval.agreement import belady_agreement, compare_agreement
from repro.eval.decision_stream import trace_decisions
from repro.eval.report import generate_report, write_report
from repro.eval.statistics import SpeedupEstimate, seed_sweep
from repro.eval.timeline import policy_timeline, render_sparkline
from repro.eval.victim_analysis import (
    VictimStatistics,
    compare_victim_profiles,
    policy_victim_statistics,
)

from repro.eval.metrics import (
    geomean,
    ipc_speedup,
    mix_speedup,
    overall_speedup_percent,
    speedup_percent,
)
from repro.eval.parallel import CellResult, SweepReport, parallel_sweep
from repro.eval.prep_cache import (
    PrepCache,
    attach_prep_cache,
    workload_cache_key,
)
from repro.eval.runner import (
    compare_policies,
    run_belady,
    run_workload,
)
from repro.eval.workloads import (
    EvalConfig,
    RL_TRAINING_BENCHMARKS,
    high_mpki_names,
    spec_mixes,
    suite_names,
)

__all__ = [
    "CellResult",
    "EvalConfig",
    "PrepCache",
    "SpeedupEstimate",
    "SweepReport",
    "VictimStatistics",
    "trace_decisions",
    "attach_prep_cache",
    "parallel_sweep",
    "workload_cache_key",
    "belady_agreement",
    "generate_report",
    "seed_sweep",
    "write_report",
    "compare_agreement",
    "compare_victim_profiles",
    "policy_timeline",
    "policy_victim_statistics",
    "render_sparkline",
    "RL_TRAINING_BENCHMARKS",
    "compare_policies",
    "geomean",
    "high_mpki_names",
    "ipc_speedup",
    "mix_speedup",
    "overall_speedup_percent",
    "run_belady",
    "run_workload",
    "speedup_percent",
    "spec_mixes",
    "suite_names",
]
