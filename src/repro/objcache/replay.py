"""Object-trace replay and the object-cache sweep grid.

Replay is a pure function of ``(trace, capacity, policy, admission)`` so the
sweep can fan cells out over :class:`repro.runs.executor.ProcessTaskPool`
and still merge a deterministic report: results are integers and exact
float ratios, cells sort by ``(workload, policy)``, and ``--jobs 1`` vs
``--jobs N`` reports are byte-identical (the same acceptance bar the CPU
sweep meets).

The sweep runs through the CPU sweep loop and report types
(`CellResult`/`SweepReport`): object cells carry an
:class:`ObjectCacheResult`, which the journal codec tags by kind and
:mod:`repro.scenarios.object_runner` renders into report cells.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import asdict, dataclass

from repro import sanitize as sanitize_mod
from repro.sanitize.errors import SanitizeError
from repro.testing.faults import maybe_fault
from repro.traces.oracle import NextUseOracle

from .admission import make_admission
from .cache import ObjectCache
from .core import ObjectCacheStats
from .policies import make_object_policy
from .workloads import ObjectTrace, generate_object_trace


@dataclass(frozen=True)
class ObjectCacheResult:
    """One cell's outcome; field names match ``ObjectCacheStats``."""

    capacity_bytes: int
    accesses: int
    hits: int
    misses: int
    requested_bytes: int
    hit_bytes: int
    miss_bytes: int
    admitted: int
    admitted_bytes: int
    rejected: int
    rejected_bytes: int
    evictions: int
    evicted_bytes: int
    residents: int
    bytes_in_cache: int

    @classmethod
    def from_stats(cls, stats: ObjectCacheStats, capacity_bytes: int):
        return cls(capacity_bytes=capacity_bytes, **stats.as_dict())

    @property
    def byte_hit_rate(self) -> float:
        if self.requested_bytes == 0:
            return 0.0
        return self.hit_bytes / self.requested_bytes

    @property
    def object_hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def stats_dict(self) -> dict:
        stats = asdict(self)
        stats.pop("capacity_bytes")
        return stats


@dataclass
class ObjectReplayOutcome:
    result: ObjectCacheResult
    violations: tuple = ()
    decisions: dict = None


def build_policy(policy: str, params: dict = None):
    """Registry lookup with per-policy params (scenario ``params`` clause)."""
    return make_object_policy(policy, **(params or {}))


def replay_object_trace(
    trace: ObjectTrace,
    capacity_bytes: int,
    policy: str,
    *,
    policy_params: dict = None,
    admission: dict = None,
    sanitize: str = None,
    decisions: int = None,
) -> ObjectReplayOutcome:
    """Replay one trace through one policy.

    Args:
        admission: ``{"kind": name, **params}`` (default always-admit).
        sanitize: off/normal/strict (default: resolve env).
        decisions: sample rate for decision tracing + size-aware-oracle
            grading (None = tracing off; 1 = grade every eviction).
    """
    maybe_fault("object-replay", workload=trace.name, policy=policy)
    admission_spec = dict(admission or {"kind": "always"})
    hook = make_admission(admission_spec.pop("kind"), **admission_spec)
    cache = ObjectCache(capacity_bytes, build_policy(policy, policy_params),
                        admission=hook, sanitize=sanitize)

    decision_payload = None
    trace_obj = None
    if decisions is not None:
        from repro.telemetry.object_decisions import ObjectDecisionTrace

        trace_obj = ObjectDecisionTrace(
            workload=trace.name,
            policy=policy,
            sample_rate=decisions,
            oracle=NextUseOracle(request.key for request in trace.requests),
            total=len(trace.requests),
        )
        trace_obj.attach(cache)
        for request in trace.requests:
            hit = cache.access(request)
            trace_obj.on_access(request, hit)
    else:
        cache.replay(trace.requests)

    violations = list(cache.violations)
    problems = cache.check_conservation()
    if problems:
        detail = "; ".join(problems)
        if cache.sanitize == "strict":
            raise SanitizeError(
                f"object cache byte accounting violated ({policy} on "
                f"{trace.name}): {detail}"
            )
        violations.extend(
            f"byte accounting: {problem}" for problem in problems
        )
    if trace_obj is not None:
        decision_payload = trace_obj.cell_payload()
    result = ObjectCacheResult.from_stats(cache.stats, capacity_bytes)
    return ObjectReplayOutcome(
        result=result, violations=tuple(violations),
        decisions=decision_payload,
    )


# -- sweep --------------------------------------------------------------------


def _cell_task(trace: ObjectTrace, workload: str, policy: str,
               capacity_bytes: int, policy_params: dict, admission,
               sanitize, decisions):
    """One object cell (module-level for pickling); never raises."""
    from repro.eval.parallel import CellResult

    started = time.perf_counter()
    try:
        outcome = replay_object_trace(
            trace, capacity_bytes, policy,
            policy_params=policy_params.get(policy), admission=admission,
            sanitize=sanitize, decisions=decisions,
        )
    except Exception:  # noqa: BLE001 - cell isolation
        return CellResult(
            workload, policy, error=traceback.format_exc(),
            seconds=time.perf_counter() - started,
        )
    return CellResult(
        workload, policy, result=outcome.result,
        seconds=time.perf_counter() - started,
        violations=outcome.violations,
        decisions=outcome.decisions,
    )


def object_sweep(
    traces,
    capacity_bytes: int,
    policies,
    *,
    admission: dict = None,
    policy_params: dict = None,
    jobs: int = 1,
    timeout: float = None,
    retries: int = 0,
    sanitize: str = None,
    decisions: int = None,
    journal=None,
    journal_tag=None,
):
    """Replay every (trace, policy) cell; returns a ``SweepReport``.

    ``traces`` is an iterable of :class:`ObjectTrace`;
    ``policy_params`` maps policy name -> kwargs dict.

    Runs through the CPU sweep loop (:mod:`repro.eval.parallel`): an
    object trace is a workload with no pass 1, and each cell is one
    :func:`replay_object_trace` call.  So object sweeps share the CPU
    sweep's guards: ``jobs``/``decisions`` checks, the process pool with its
    watchdog (``timeout``) and ``retries``, and the ``journal``
    (a :class:`~repro.runs.journal.RunJournal`) crash-safety contract —
    completed cells are appended as they finish, journaled cells are
    adopted on resume, and SIGINT/SIGTERM raise
    :class:`~repro.runs.supervisor.SweepInterrupted` only after the journal
    is flushed.  ``journal_tag`` disambiguates grids that share a journal
    (the per-seed passes of a multi-seed scenario).
    """
    from repro.eval.parallel import _check_options, _sweep

    _check_options(jobs, decisions)
    started = time.perf_counter()
    traces = {trace.name: trace for trace in traces}
    return _sweep(
        list(traces),
        list(policies),
        _cell_task,
        (capacity_bytes, policy_params or {}, admission,
         sanitize_mod.resolve_mode(sanitize), decisions),
        resolve=lambda names: ({name: traces[name] for name in names}, {}),
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        journal=journal,
        started=started,
        tag=journal_tag,
        result_kind="object",
    )


def traces_from_specs(specs, default_seed: int = 0):
    """Materialise ``[{name, kind, objects, length, ...}]`` workload specs."""
    traces = []
    for spec in specs:
        clause = dict(spec)
        clause.setdefault("seed", default_seed)
        traces.append(generate_object_trace(**clause))
    return traces
