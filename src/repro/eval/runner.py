"""Sweep runner: (workload x policy) simulations, including Belady.

Because the LLC reference stream is independent of the LLC's own replacement
policy (upper levels never observe LLC state — the same property the paper
exploits to train RL on pre-recorded LLC traces), each workload is run
through L1/L2 and the prefetchers exactly once (:func:`prepare_workload`,
a recording hierarchy that simulates no LLC), recording

* the LLC access stream,
* the per-core compute + L1/L2-stall cycle baseline, and
* the warm-up boundary,

and every policy is then evaluated by replaying only the LLC
(:func:`replay`).  Replay results are bit-identical to a full-system run and
an order of magnitude faster.  :func:`run_workload` is the public
one-simulation entry point; :func:`run_belady` reuses the recorded stream as
OPT's future knowledge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.cache.cache import Cache
from repro.cache.config import CoreConfig
from repro.cache.hierarchy import L1, L2, LLC, MEMORY, CacheHierarchy
from repro.cache.replacement import make_policy
from repro.cache.replacement.belady import BeladyPolicy
from repro.cpu.core_model import TimingModel
from repro.cpu.system import SystemResult
from repro.eval.workloads import EvalConfig
from repro.telemetry import span
from repro.testing.faults import maybe_fault
from repro.traces.record import Trace, records_from_columns, records_to_columns


@dataclass
class PreparedWorkload:
    """Pass-1 artifact: everything policy-independent about one workload."""

    trace_name: str
    num_cores: int
    llc_config: object
    llc_records: list  #: the LLC access stream (TraceRecord objects)
    warmup_index: int  #: stream position where measurement starts
    base_cycles: list  #: per-core cycles excluding LLC-level demand stalls
    instructions: list  #: per-core instructions (post-warm-up)
    stall_llc: float
    stall_mem: float
    #: Per-level counters from the recording pass (telemetry): summed L1
    #: and L2 ``CacheStats`` summaries, and ``{"accesses": N}`` for the LLC,
    #: where N is the recorded stream's length (no LLC is simulated).
    hierarchy_stats: dict = field(default_factory=dict)
    #: Wall-clock seconds pass 1 took (telemetry; 0.0 for legacy artifacts).
    #: Excluded from equality — two identical simulations are equal however
    #: long the hardware took to run them.
    prepare_seconds: float = field(default=0.0, compare=False)

    @property
    def llc_line_stream(self) -> list:
        """Line addresses of the stream (Belady's future knowledge)."""
        return [record.line_address for record in self.llc_records]

    # The stream crosses the pool pipe and the prep-cache as five typed
    # columns: pickling ~100k records one dataclass at a time cost more than
    # recording them.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["llc_records"] = records_to_columns(self.llc_records)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.llc_records = records_from_columns(state["llc_records"])


def _core_config(core_config: Optional[CoreConfig]) -> CoreConfig:
    """Normalize an optional core configuration (the one place it happens)."""
    return CoreConfig() if core_config is None else core_config


def prepare_workload(
    eval_config: EvalConfig,
    trace: Trace,
    num_cores: int = 1,
    l2_prefetcher: Optional[str] = None,
    core_config: Optional[CoreConfig] = None,
) -> PreparedWorkload:
    """Run L1/L2 and the prefetchers once and record the LLC stream."""
    maybe_fault("prepare", workload=trace.name)
    started = time.perf_counter()
    core_config = _core_config(core_config)
    hierarchy_config = eval_config.hierarchy(num_cores=num_cores)
    hierarchy = CacheHierarchy(
        hierarchy_config, None, l2_prefetcher=l2_prefetcher
    )
    timing = TimingModel(hierarchy_config, core_config)
    llc_records = hierarchy.llc_records

    warmup_end = int(len(trace.records) * eval_config.warmup_fraction)
    warmup_index = 0
    base_cycles = [0.0] * num_cores
    instructions = [0] * num_cores
    issue_width = timing.core_config.issue_width
    stall = timing._stall
    with span("prepare_workload", workload=trace.name,
              records=len(trace.records)):
        for position, record in enumerate(trace.records):
            if position == warmup_end:
                warmup_index = len(llc_records)
            level = hierarchy.access(record)
            if position < warmup_end:
                continue
            core = record.core
            instructions[core] += record.instr_delta
            base_cycles[core] += record.instr_delta / issue_width
            if level in (L1, L2):
                base_cycles[core] += stall[level]
            # LLC/MEMORY stalls are policy-dependent; charged during replay.
    return PreparedWorkload(
        trace_name=trace.name,
        num_cores=num_cores,
        llc_config=hierarchy_config.llc,
        llc_records=llc_records,
        warmup_index=warmup_index,
        base_cycles=base_cycles,
        instructions=instructions,
        stall_llc=stall[LLC],
        stall_mem=stall[MEMORY],
        hierarchy_stats=hierarchy.stats_summary(),
        prepare_seconds=time.perf_counter() - started,
    )


def _instantiate(policy, num_cores: int):
    """Accept a policy name or instance; wire multicore RLR automatically."""
    if not isinstance(policy, str):
        return policy
    if policy in ("rlr", "rlr_unopt", "rlr_tuned") and num_cores > 1:
        return make_policy(policy, num_cores=num_cores)
    return make_policy(policy)


def replay(
    prepared: PreparedWorkload,
    policy,
    allow_bypass: bool = False,
    detailed: Optional[bool] = None,
    observers: Optional[list] = None,
    sanitize: str = None,
    decisions=None,
    profile=None,
    violations: Optional[list] = None,
) -> SystemResult:
    """Replay the recorded LLC stream under ``policy``; compute IPC/stats.

    ``detailed`` forces Table II metadata maintenance on the replay cache
    (defaults to the policy's own ``needs_line_metadata``); ``observers`` are
    attached as decision observers (Figures 5-7 instrumentation).
    ``sanitize`` selects what a policy-contract violation does (see
    :class:`~repro.cache.cache.Cache`); when ``violations`` is a list, the
    replay cache's recorded violations are appended to it.

    ``decisions`` is an optional
    :class:`repro.telemetry.decisions.DecisionTrace`: it is attached as an
    access + decision observer, receives sanitizer contract violations
    while the replay runs, and forces ``detailed=True`` so victim feature
    snapshots are live (metadata maintenance does not change simulation
    results — only what observers can read).  When ``None`` (the default)
    the replay is structurally identical to a pre-tracing one.

    ``profile`` is an optional :class:`repro.telemetry.perf.PhaseProfile`:
    when given, the cache and its policy are wrapped with phase timers and
    the loop wall time is folded in via ``profile.finish()``.  When
    ``None`` (the default) the plain :class:`Cache` is constructed and the
    hot loop runs the exact pre-profiler code path.
    """
    policy = _instantiate(policy, prepared.num_cores)
    if decisions is not None:
        from repro.telemetry.decisions import activate

        detailed = True
        decisions.begin(
            total=len(prepared.llc_records),
            policy_name=getattr(policy, "name", "unknown"),
        )
        activate(decisions)
    try:
        policy.bind(prepared.llc_config)
        if detailed is None:
            detailed = getattr(policy, "needs_line_metadata", True)
        if profile is None:
            cache = Cache(
                prepared.llc_config,
                policy,
                allow_bypass=allow_bypass,
                detailed=detailed,
                sanitize=sanitize,
            )
        else:
            from repro.telemetry.perf import make_profiled_cache

            cache = make_profiled_cache(
                prepared.llc_config,
                policy,
                profile,
                allow_bypass=allow_bypass,
                detailed=detailed,
                sanitize=sanitize,
            )
        for observer in observers or []:
            cache.add_decision_observer(observer)
        if decisions is not None:
            cache.add_decision_observer(decisions.on_decision)
            cache.add_access_observer(decisions.on_access)
        cycles = list(prepared.base_cycles)
        warmup_index = prepared.warmup_index
        stall_llc, stall_mem = prepared.stall_llc, prepared.stall_mem
        loop_started = time.perf_counter()
        with span(
            "replay",
            workload=prepared.trace_name,
            policy=getattr(policy, "name", "unknown"),
            records=len(prepared.llc_records),
        ):
            for position, record in enumerate(prepared.llc_records):
                if position == warmup_index:
                    cache.reset_stats()
                result = cache.access(record)
                if position >= warmup_index and record.access_type.is_demand:
                    cycles[record.core] += stall_llc if result.hit else stall_mem
        if profile is not None:
            profile.finish(time.perf_counter() - loop_started)
        if violations is not None:
            violations.extend(cache.violations)
    finally:
        if decisions is not None:
            from repro.telemetry.decisions import deactivate

            deactivate(decisions)
    ipc = [
        instr / cyc if cyc > 0 else 0.0
        for instr, cyc in zip(prepared.instructions, cycles)
    ]
    total_instructions = sum(prepared.instructions)
    return SystemResult(
        trace_name=prepared.trace_name,
        policy_name=getattr(policy, "name", "unknown"),
        ipc=ipc,
        instructions=list(prepared.instructions),
        llc_stats=cache.stats.summary(),
        demand_mpki=cache.stats.demand_mpki(total_instructions),
        llc_demand_hit_rate=cache.stats.demand_hit_rate,
        llc_hit_rate=cache.stats.hit_rate,
    )


def _memory_cache(eval_config) -> dict:
    """The per-EvalConfig in-memory pass-1 cache (created on first use)."""
    cache = getattr(eval_config, "_prepared_cache", None)
    if cache is None:
        cache = {}
        eval_config._prepared_cache = cache
    return cache


def _memory_key(trace, num_cores, l2_prefetcher):
    return (trace.name, num_cores, l2_prefetcher, len(trace.records))


def _prepared(eval_config, trace, num_cores, l2_prefetcher) -> PreparedWorkload:
    """Cache pass-1 artifacts on the EvalConfig (keyed by trace identity).

    If a :class:`repro.eval.prep_cache.PrepCache` is attached to the
    EvalConfig (``eval_config.prep_cache``), it is consulted before
    simulating and populated after, so prepared workloads persist across
    processes and sessions.
    """
    cache = _memory_cache(eval_config)
    key = _memory_key(trace, num_cores, l2_prefetcher)
    if key not in cache:
        disk = getattr(eval_config, "prep_cache", None)
        prepared = None
        disk_key = None
        if disk is not None:
            from repro.eval.prep_cache import workload_cache_key

            disk_key = workload_cache_key(
                eval_config, trace, num_cores=num_cores, l2_prefetcher=l2_prefetcher
            )
            prepared = disk.load(disk_key)
        if prepared is None:
            prepared = prepare_workload(
                eval_config, trace, num_cores=num_cores, l2_prefetcher=l2_prefetcher
            )
            if disk is not None:
                disk.store(disk_key, prepared)
        cache[key] = prepared
    return cache[key]


def run_workload(
    eval_config: EvalConfig,
    trace: Trace,
    policy,
    num_cores: int = 1,
    allow_bypass: bool = False,
    l2_prefetcher: Optional[str] = None,
) -> SystemResult:
    """Simulate one trace under one policy at the evaluation scale."""
    prepared = _prepared(eval_config, trace, num_cores, l2_prefetcher)
    return replay(prepared, policy, allow_bypass=allow_bypass)


def record_llc_stream(
    eval_config: EvalConfig,
    trace: Trace,
    num_cores: int = 1,
    l2_prefetcher: Optional[str] = None,
) -> list:
    """The LLC line-address stream for ``trace`` (Belady's future input)."""
    prepared = _prepared(eval_config, trace, num_cores, l2_prefetcher)
    return prepared.llc_line_stream


def run_belady(
    eval_config: EvalConfig,
    trace: Trace,
    num_cores: int = 1,
    l2_prefetcher: Optional[str] = None,
    allow_bypass: bool = False,
) -> SystemResult:
    """Exact Belady OPT using the recorded stream as future knowledge."""
    prepared = _prepared(eval_config, trace, num_cores, l2_prefetcher)
    policy = BeladyPolicy(prepared.llc_line_stream, allow_bypass=allow_bypass)
    return replay(prepared, policy, allow_bypass=allow_bypass)


def compare_policies(
    eval_config: EvalConfig,
    trace: Trace,
    policies,
    num_cores: int = 1,
    include_belady: bool = False,
    l2_prefetcher: Optional[str] = None,
) -> dict:
    """Run one trace under several policies; returns {name: SystemResult}."""
    prepared = _prepared(eval_config, trace, num_cores, l2_prefetcher)
    results = {}
    for policy in policies:
        name = policy if isinstance(policy, str) else policy.name
        results[name] = replay(prepared, policy)
    if include_belady:
        belady = BeladyPolicy(prepared.llc_line_stream)
        results["belady"] = replay(prepared, belady)
    return results
