"""Process-parallel (workload x policy) sweep engine, crash-safe.

The serial runner already splits every simulation into a policy-independent
pass 1 (:func:`~repro.eval.runner.prepare_workload`) and a cheap per-policy
pass 2 (:func:`~repro.eval.runner.replay`).  Both passes are embarrassingly
parallel across their work items, so :func:`parallel_sweep` fans them out
over a :class:`~repro.runs.executor.ProcessTaskPool`:

* pass 1 runs once per workload (misses only — prepared workloads are
  served from the in-memory cache and, when a cache directory is given,
  from the on-disk :class:`~repro.eval.prep_cache.PrepCache`);
* pass 2 runs once per (workload, policy) cell, submitted as soon as that
  workload's pass 1 finishes (no barrier between the passes).

The same sweep loop runs object-cache sweeps
(:func:`repro.objcache.replay.object_sweep`): an object trace is a workload
with no pass 1, so everything below holds for both cache kinds.

Determinism: every cell is a pure function of its inputs, and results are
merged sorted by ``(workload, policy)``, so ``jobs=1`` and ``jobs=N``
produce equal reports, cell for cell (the differential test asserts this;
:mod:`repro.scenarios.runner` renders them as the canonical payload).

Fault tolerance (the ``repro.runs`` reliability contract):

* a policy that raises during replay is captured as a per-cell failure
  (:attr:`CellResult.error` holds the traceback) instead of killing the
  sweep; pass-1 failures fail every cell of that workload;
* with ``timeout`` set, a hung worker is killed by the pool's watchdog and
  the cell is retried (up to ``retries`` times, exponential backoff with
  jitter) or reported failed — it can never stall the pool;
* a worker that dies without reporting (SIGKILL, segfault) is likewise a
  retryable transient failure, isolated to its cell;
* with ``journal`` set, every completed cell is durably appended to a
  :class:`~repro.runs.journal.RunJournal`; a resumed sweep skips journaled
  cells (and pass 1 for fully finished workloads) and renders a report
  byte-identical to an uninterrupted run;
* while journaling, SIGINT/SIGTERM raise
  :class:`~repro.runs.supervisor.SweepInterrupted` *after* workers are
  reaped — the journal is always flushed, never torn.
"""

from __future__ import annotations

import copy
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro import telemetry
from repro.cache.config import CoreConfig
from repro.cache.replacement.belady import BeladyPolicy
from repro.cpu.system import SystemResult
from repro.eval.prep_cache import PrepCache, workload_cache_key
from repro.eval.runner import (
    _memory_cache,
    _memory_key,
    prepare_workload,
    replay,
)
from repro.eval.workloads import EvalConfig
from repro.runs.executor import ProcessTaskPool
from repro.runs.supervisor import SweepInterrupted
from repro.testing.faults import maybe_fault
from repro.traces.record import Trace

#: Policy name handled specially: the recorded stream is its future input.
BELADY = "belady"

#: The decision-summary counters a cell keeps as its ``regret``.
REGRET_KEYS = ("evictions", "graded", "optimal", "neutral", "harmful",
               "regret_x2")


@dataclass
class CellResult:
    """Outcome of one (workload, policy) cell: a result or a failure."""

    workload: str
    policy: str
    result: Optional[SystemResult] = None
    error: Optional[str] = None
    #: Worker-measured replay wall time (telemetry only; never journaled,
    #: so cells adopted on --resume have ``seconds=None``).
    seconds: Optional[float] = None
    #: Contract violations recorded by the policy sanitizer (normal mode
    #: degraded the policy to LRU mid-cell; the numbers are still a valid
    #: simulation, just not of the policy named in the row).
    violations: tuple = ()
    #: Decision-trace payload (:meth:`DecisionTrace.cell_payload`) when the
    #: sweep ran with ``decisions=``; never journaled (cells adopted on
    #: --resume have ``decisions=None`` — the log cannot cover them).
    decisions: Optional[dict] = None
    #: The decision log's Belady-regret counters (:data:`REGRET_KEYS`).
    #: Journaled, unlike the log, so a cell adopted on --resume keeps them.
    regret: Optional[dict] = None

    def __post_init__(self):
        if self.decisions and self.regret is None:
            summary = self.decisions.get("summary", {})
            self.regret = {key: summary.get(key, 0) for key in REGRET_KEYS}

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def status(self) -> str:
        """``"ok"`` | ``"degraded"`` | ``"failed"``."""
        if self.error is not None:
            return "failed"
        return "degraded" if self.violations else "ok"


@dataclass
class SweepReport:
    """Deterministically merged sweep outcome.

    ``cells`` is sorted by ``(workload, policy)`` regardless of completion
    order, so two runs over the same inputs — serial or parallel, cold or
    warm cache, interrupted-and-resumed or uninterrupted — render
    identically.
    """

    cells: list  #: CellResult, sorted by (workload, policy)
    workloads: list  #: workload names in sweep order
    policies: list  #: policy names in sweep order
    jobs: int = 1
    cached_workloads: tuple = ()  #: workloads served from the prep cache
    resumed: tuple = ()  #: (workload, policy) cells served from the journal
    pool_stats: dict = field(default_factory=dict)  #: watchdog/retry counters
    prep_cache_stats: dict = field(default_factory=dict)  #: hits/misses/corrupt
    #: Per-workload pass-1 counters (telemetry; resumed workloads whose
    #: pass 1 was skipped entirely are absent): summed L1 and L2 summaries,
    #: and ``{"accesses": N}`` for the LLC, the recorded stream's length.
    hierarchy_stats: dict = field(default_factory=dict)
    prepare_seconds: dict = field(default_factory=dict)  #: workload -> seconds
    wall_seconds: float = 0.0  #: parent-measured sweep wall time

    def cell(self, workload: str, policy: str) -> CellResult:
        for cell in self.cells:
            if cell.workload == workload and cell.policy == policy:
                return cell
        raise KeyError((workload, policy))

    def table(self) -> dict:
        """``{workload: {policy: SystemResult}}`` over successful cells."""
        table = {}
        for cell in self.cells:
            if cell.ok:
                table.setdefault(cell.workload, {})[cell.policy] = cell.result
        return table

    def failures(self) -> list:
        """Cells whose policy raised (pass-1 or pass-2 failures)."""
        return [cell for cell in self.cells if not cell.ok]

    def decision_payloads(self) -> list:
        """Per-cell decision-trace payloads, in deterministic cell order.

        Empty unless the sweep ran with ``decisions=``; cells adopted from
        a journal on --resume carry no payload and are skipped.
        """
        return [
            cell.decisions
            for cell in self.cells
            if getattr(cell, "decisions", None)
        ]


# -- journal codec -------------------------------------------------------------
#
# JSON round-trips Python floats exactly (repr-based shortest encoding), so a
# cell reloaded from the journal equals the cell that was journaled.


def journal_cell_entry(cell: CellResult, tag=None) -> dict:
    """The journal entry recording one successfully completed cell.

    Works for both result kinds: CPU cells carry a
    :class:`~repro.eval.runner.SystemResult`, object-cache cells an
    :class:`~repro.objcache.replay.ObjectCacheResult` (duck-typed on
    ``byte_hit_rate`` and tagged ``"result_kind": "object"`` so the reader
    rebuilds the right dataclass).  ``tag`` distinguishes otherwise
    identical grids sharing one journal (the per-seed passes of a
    multi-seed scenario).
    """
    entry = {
        "type": "cell",
        "workload": cell.workload,
        "policy": cell.policy,
        "result": asdict(cell.result),
    }
    # Only when present, so journals without degraded cells stay
    # byte-identical to those written before the sanitizer existed (and
    # CPU-cell entries stay byte-identical to pre-object-journal ones).
    if hasattr(cell.result, "byte_hit_rate"):
        entry["result_kind"] = "object"
    if tag is not None:
        entry["tag"] = tag
    if cell.violations:
        entry["violations"] = list(cell.violations)
    if cell.regret is not None:
        entry["regret"] = cell.regret
    return entry


def cell_from_journal_entry(entry: dict) -> Optional[CellResult]:
    """Rebuild a :class:`CellResult` from a journal entry (None if invalid)."""
    if entry.get("type") != "cell":
        return None
    payload = entry.get("result")
    if not isinstance(payload, dict):
        return None
    if entry.get("result_kind") == "object":
        from repro.objcache.replay import ObjectCacheResult

        try:
            result = ObjectCacheResult(**payload)
        except TypeError:
            return None  # incompatible layout: recompute the cell
    else:
        try:
            result = SystemResult(**payload)
        except TypeError:
            return None  # written by an incompatible version: recompute
    return CellResult(
        workload=str(entry.get("workload")),
        policy=str(entry.get("policy")),
        result=result,
        violations=tuple(
            str(item) for item in entry.get("violations", ())
        ),
        regret=entry.get("regret"),
    )


# -- work items ---------------------------------------------------------------


def _policy_name(policy) -> str:
    return policy if isinstance(policy, str) else policy.name


def _prepare_task(eval_config, trace, num_cores, l2_prefetcher, core_config):
    """Pass-1 work item (runs in a worker process)."""
    return prepare_workload(
        eval_config,
        trace,
        num_cores=num_cores,
        l2_prefetcher=l2_prefetcher,
        core_config=core_config,
    )


def _replay_task(
    prepared, workload, policy, allow_bypass, sanitize=None, decisions=None
) -> CellResult:
    """Pass-2 work item; never raises (fault isolation per cell).

    A policy instance is replayed as a deep copy, so every cell starts from
    the instance as the caller passed it, whichever process runs the cell.
    The replay hands back the contract violations its cache recorded, which
    mark the cell ``degraded``.  In strict mode a violation raises
    :class:`~repro.sanitize.errors.PolicyContractError` from inside the
    replay and lands in ``error`` like any other per-cell failure.

    ``decisions`` (an integer sample rate) attaches a graded
    :class:`~repro.telemetry.decisions.DecisionTrace` to the replay; its
    payload rides back on :attr:`CellResult.decisions`.  The events are a
    pure function of the deterministic replay, so the payload is identical
    whichever worker runs the cell.
    """
    name = _policy_name(policy)
    started = time.perf_counter()
    try:
        maybe_fault("replay", workload=workload, policy=name)
        if name == BELADY:
            policy = BeladyPolicy(
                prepared.llc_line_stream, allow_bypass=allow_bypass
            )
        elif not isinstance(policy, str):
            policy = copy.deepcopy(policy)
        trace = None
        if decisions:
            from repro.telemetry.decisions import DecisionTrace
            from repro.traces.oracle import NextUseOracle

            trace = DecisionTrace(
                workload=workload,
                policy=name,
                sample_rate=decisions,
                oracle=NextUseOracle(prepared.llc_line_stream),
            )
        violations = []
        result = replay(
            prepared, policy, allow_bypass=allow_bypass, sanitize=sanitize,
            decisions=trace, violations=violations,
        )
        return CellResult(
            workload, name, result=result,
            seconds=time.perf_counter() - started,
            violations=tuple(violations),
            decisions=trace.cell_payload() if trace is not None else None,
        )
    except Exception:
        return CellResult(
            workload, name, error=traceback.format_exc(),
            seconds=time.perf_counter() - started,
        )


def _worker_config(eval_config: EvalConfig) -> EvalConfig:
    """A pickling-light copy of the config (traces travel separately)."""
    return replace(eval_config, _trace_cache={})


@contextmanager
def _interrupt_guard(enabled: bool):
    """Convert SIGINT/SIGTERM into :class:`SweepInterrupted` while active.

    Only installed from the main thread (signal handlers cannot be set
    elsewhere); the previous handlers are always restored.
    """
    if not enabled or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise_interrupted(signum, frame):
        raise SweepInterrupted(f"received signal {signum}")

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _raise_interrupted)
        except (ValueError, OSError):
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass


def _check_options(jobs: int, decisions: Optional[int]) -> None:
    """The argument checks every sweep entry point makes before any work."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if decisions is not None and decisions < 1:
        raise ValueError("decisions sample rate must be >= 1")


def _sweep(
    workload_names,
    policies,
    cell,
    cell_args: tuple,
    *,
    resolve,
    jobs: int,
    timeout: Optional[float],
    retries: int,
    journal,
    started: float,
    tag=None,
    result_kind: Optional[str] = None,
    adopt=None,
    notify=None,
) -> SweepReport:
    """Run every (workload, policy) cell of one grid: the one sweep loop.

    :func:`parallel_sweep` and :func:`repro.objcache.replay.object_sweep`
    are thin entry points over this loop; they only say how a workload
    becomes replayable and which task replays one cell.

    * ``resolve(names)`` receives the workloads that still owe cells and
      returns ``(ready, pending)``: ``ready`` maps a name to its replayable
      input, ``pending`` maps a name to the ``(task, args)`` that prepares it
      (the CPU pass 1; an object trace is ready from the start).
    * ``cell(prepared, workload, policy, *cell_args)`` is a module-level task
      (picklable) that returns a :class:`CellResult` and never raises.
    * ``adopt(name, prepared)`` sees each workload as its preparation ends.
    * Journal entries with a matching ``result_kind`` and ``tag`` are adopted
      verbatim on resume; completed cells are appended with ``tag``.
    """
    notify = notify or (lambda message: None)
    policy_names = [_policy_name(policy) for policy in policies]

    # Resume: cells already journaled are adopted verbatim, not re-run.
    done_cells = []
    done_keys = set()
    if journal is not None:
        journal.reload()
        grid = {
            (name, policy) for name in workload_names for policy in policy_names
        }
        for entry in journal.entries():
            if entry.get("result_kind") != result_kind:
                continue  # the other cache kind's cells
            if entry.get("tag") != tag:
                continue  # another grid sharing this journal
            done = cell_from_journal_entry(entry)
            if done is None:
                continue
            key = (done.workload, done.policy)
            if key in grid and key not in done_keys:
                done_keys.add(key)
                done_cells.append(done)
        if done_cells:
            notify(f"resume: {len(done_cells)} cells served from the journal")

    #: policies still owed per workload; fully journaled workloads skip prep.
    wanted = {
        name: [
            policy
            for policy in policies
            if (name, _policy_name(policy)) not in done_keys
        ]
        for name in workload_names
    }
    ready, pending = resolve([name for name in workload_names if wanted[name]])

    results = []

    def complete(result: CellResult) -> None:
        results.append(result)
        if result.seconds is not None:
            telemetry.emit_span(
                "cell.replay",
                result.seconds,
                workload=result.workload,
                policy=result.policy,
                ok=result.ok,
            )
        if journal is not None and result.ok:
            journal.append(journal_cell_entry(result, tag=tag))

    def prepared(name: str, value) -> None:
        ready[name] = value
        if adopt is not None:
            adopt(name, value)

    def prepare_failed(name: str, error: str) -> None:
        for policy in wanted[name]:
            complete(CellResult(name, _policy_name(policy), error=error))
        notify(f"prepare FAILED for {name}")

    # A watchdog needs a process to kill; retries need a process to restart.
    pooled = jobs > 1 or timeout is not None or retries > 0
    pool_stats = {}
    try:
        with _interrupt_guard(enabled=journal is not None):
            if not pooled:
                for name, (task, args) in pending.items():
                    try:
                        value = task(*args)
                    except Exception:
                        prepare_failed(name, traceback.format_exc())
                        continue
                    prepared(name, value)
                for name in workload_names:
                    if not wanted[name] or name not in ready:
                        continue
                    for policy in wanted[name]:
                        complete(cell(ready[name], name, policy, *cell_args))
                    notify(f"finished {name}")
            else:
                with ProcessTaskPool(
                    max_workers=jobs, timeout=timeout, retries=retries
                ) as pool:

                    def submit_cells(name: str) -> None:
                        for policy in wanted[name]:
                            pool.submit(
                                cell, ready[name], name, policy, *cell_args,
                                tag=("replay", name, _policy_name(policy)),
                            )

                    for name, (task, args) in pending.items():
                        pool.submit(task, *args, tag=("prepare", name))
                    for name in list(ready):
                        submit_cells(name)

                    for outcome in pool.completed():
                        if outcome.tag[0] == "prepare":
                            name = outcome.tag[1]
                            if not outcome.ok:
                                prepare_failed(name, outcome.error)
                                continue
                            prepared(name, outcome.value)
                            submit_cells(name)
                        elif outcome.ok:
                            complete(outcome.value)
                        else:
                            # Crash/timeout after all retries: a per-cell
                            # failure, not a sweep failure.
                            _, name, pname = outcome.tag
                            complete(CellResult(name, pname, error=outcome.error))
                    pool_stats = pool.stats.as_dict()
    except (KeyboardInterrupt, SweepInterrupted):
        if journal is None:
            raise
        # Workers are already reaped (pool context exit) and every completed
        # cell was journaled as it finished — safe to resume.
        raise SweepInterrupted(
            "sweep interrupted — completed cells are journaled; resume "
            "with --resume",
            completed=len(done_cells) + len(results),
        ) from None

    results.extend(done_cells)
    results.sort(key=lambda result: (result.workload, result.policy))
    return SweepReport(
        cells=results,
        workloads=list(workload_names),
        policies=policy_names,
        jobs=jobs,
        resumed=tuple(sorted(done_keys)),
        pool_stats=pool_stats,
        wall_seconds=time.perf_counter() - started,
    )


def parallel_sweep(
    eval_config: EvalConfig,
    workloads,
    policies,
    *,
    jobs: int = 1,
    include_belady: bool = False,
    num_cores: int = 1,
    l2_prefetcher: Optional[str] = None,
    core_config: Optional[CoreConfig] = None,
    cache_dir=None,
    use_cache: bool = True,
    allow_bypass: bool = False,
    progress=None,
    timeout: Optional[float] = None,
    retries: int = 0,
    journal=None,
    journal_tag=None,
    sanitize: Optional[str] = None,
    decisions: Optional[int] = None,
) -> SweepReport:
    """Run a (workload x policy) sweep, parallel over ``jobs`` processes.

    ``workloads`` are workload-model names (resolved via
    ``eval_config.trace``) or pre-built :class:`Trace` objects (e.g.
    multicore mixes).  ``policies`` are registry names or picklable policy
    instances; ``include_belady`` appends the offline-optimal policy.
    ``cache_dir`` (with ``use_cache=True``) enables the on-disk prepared-
    workload cache; an existing ``eval_config.prep_cache`` attachment is
    honoured when ``cache_dir`` is not given.  ``progress`` is an optional
    ``callable(str)`` for status lines.

    Reliability knobs: ``timeout`` is a per-cell wall-clock watchdog in
    seconds, ``retries`` bounds the retry-with-backoff schedule for
    transient worker failures, and ``journal`` (a
    :class:`~repro.runs.journal.RunJournal`) makes the sweep resumable —
    already-journaled cells are skipped and completed cells are appended
    durably; ``journal_tag`` disambiguates grids that share a journal (the
    per-seed passes of a scenario).  Setting ``timeout`` or ``retries``
    routes even ``jobs=1`` sweeps through worker processes (a watchdog
    needs something to kill).

    ``sanitize`` selects the policy-contract sanitizer mode per cell
    ("off"/"normal"/"strict"; None = environment/default — see
    :mod:`repro.sanitize`).  In normal mode a misbehaving policy degrades
    to LRU and its cells are reported ``degraded``; in strict mode they
    fail with a typed error.

    ``decisions`` (an integer sample rate, 1 = every eviction) turns on
    per-eviction decision tracing with online Belady grading for every
    cell; the payloads ride on :attr:`CellResult.decisions` (see
    :meth:`SweepReport.decision_payloads` and
    :mod:`repro.telemetry.decisions`).  ``None`` leaves the replay path
    structurally unchanged.
    """
    _check_options(jobs, decisions)
    from repro.sanitize import resolve_mode

    # Resolve once in the parent: typos fail the sweep up front, and worker
    # processes see one explicit mode instead of racing the environment.
    sanitize = resolve_mode(sanitize)
    started = time.perf_counter()
    policies = list(policies)
    if include_belady and BELADY not in [_policy_name(p) for p in policies]:
        policies.append(BELADY)

    disk = None
    if use_cache:
        if cache_dir is not None:
            disk = PrepCache(cache_dir)
        else:
            disk = getattr(eval_config, "prep_cache", None)

    traces = {}
    for workload in workloads:
        if not isinstance(workload, Trace):
            workload = eval_config.trace(workload)
        traces[workload.name] = workload
    notify = progress or (lambda message: None)

    # Telemetry accumulators (parent side; deterministic pieces only ride
    # on the report — see repro.telemetry.instruments.sweep_snapshot).
    hier_stats = {}  # workload -> per-level summary from pass 1
    prep_seconds = {}  # workload -> worker/parent-measured pass-1 seconds
    memory = _memory_cache(eval_config)
    cached = []  # workloads served from the in-memory or on-disk cache
    disk_keys = {}  # workload -> prep-cache key (when the disk cache is on)

    def note_prepared(name: str, prepared) -> None:
        stats = getattr(prepared, "hierarchy_stats", {})
        if stats:
            hier_stats[name] = stats
        seconds = getattr(prepared, "prepare_seconds", 0.0)
        if seconds:
            prep_seconds[name] = seconds

    def resolve(names):
        """Pass 1 from the in-memory and on-disk caches; the rest pend."""
        ready, pending = {}, {}
        worker_config = _worker_config(eval_config)
        for name in names:
            trace = traces[name]
            memory_key = _memory_key(trace, num_cores, l2_prefetcher)
            if core_config is None and memory_key in memory:
                ready[name] = memory[memory_key]
                note_prepared(name, ready[name])
                cached.append(name)
                continue
            if disk is not None:
                disk_keys[name] = workload_cache_key(
                    eval_config,
                    trace,
                    num_cores=num_cores,
                    l2_prefetcher=l2_prefetcher,
                    core_config=core_config,
                )
                hit = disk.load(disk_keys[name])
                if hit is not None:
                    ready[name] = hit
                    note_prepared(name, hit)
                    if core_config is None:
                        memory[memory_key] = hit
                    cached.append(name)
                    notify(f"prepared {name} (cache hit)")
                    continue
            pending[name] = (
                _prepare_task,
                (worker_config, trace, num_cores, l2_prefetcher, core_config),
            )
        return ready, pending

    def adopt(name: str, prepared) -> None:
        note_prepared(name, prepared)
        telemetry.emit_span(
            "cell.prepare",
            getattr(prepared, "prepare_seconds", 0.0),
            workload=name,
        )
        if core_config is None:
            key = _memory_key(traces[name], num_cores, l2_prefetcher)
            memory[key] = prepared
        if name in disk_keys:
            disk.store(disk_keys[name], prepared)
        notify(f"prepared {name}")

    report = _sweep(
        list(traces),
        policies,
        _replay_task,
        (allow_bypass, sanitize, decisions),
        resolve=resolve,
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        journal=journal,
        started=started,
        tag=journal_tag,
        adopt=adopt,
        notify=notify,
    )
    report.cached_workloads = tuple(cached)
    report.prep_cache_stats = disk.stats() if disk is not None else {}
    report.hierarchy_stats = {
        name: hier_stats[name] for name in sorted(hier_stats)
    }
    report.prepare_seconds = dict(prep_seconds)
    return report
