"""One replay, one shared decision stream, many consumers.

Before this module existed, every decision-level analysis re-instrumented
its own replay: ``victim_analysis`` attached an eviction observer,
``agreement`` hand-built a cache around an oracle-probing proxy policy,
and ``experiments.agent_victim_statistics`` carried a third inline
observer.  :func:`trace_decisions` replaces all of that with a single
instrumented replay producing a
:class:`~repro.telemetry.decisions.DecisionTrace`, which every consumer
(Figure 5-7 profiles, Belady agreement, ``repro inspect``) reads.
"""

from __future__ import annotations

from typing import Optional

from repro.eval.runner import _prepared, replay
from repro.telemetry.decisions import DecisionTrace
from repro.traces.oracle import NextUseOracle


def trace_decisions(
    eval_config,
    workload_name: str,
    policy,
    *,
    graded: bool = False,
    sample_rate: int = 1,
    capacity: Optional[int] = None,
    worst_n: int = None,
) -> DecisionTrace:
    """Replay ``workload_name`` under ``policy``, recording every decision.

    ``graded=True`` attaches a :class:`~repro.traces.oracle.NextUseOracle`
    over the recorded LLC stream, so each eviction carries its +1/0/-1
    Belady grade.  The default ``capacity=None`` keeps every sampled event
    (analysis consumers need the full stream; the bounded default of
    :class:`DecisionTrace` is for long sweeps).
    """
    trace = eval_config.trace(workload_name)
    prepared = _prepared(eval_config, trace, 1, None)
    oracle = NextUseOracle(prepared.llc_line_stream) if graded else None
    kwargs = {} if worst_n is None else {"worst_n": worst_n}
    decisions = DecisionTrace(
        workload=workload_name,
        sample_rate=sample_rate,
        capacity=capacity,
        oracle=oracle,
        **kwargs,
    )
    replay(prepared, policy, decisions=decisions)
    return decisions
