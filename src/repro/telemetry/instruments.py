"""Domain instrumentation: simulator/trainer/sweep state -> metrics.

The hot layers keep their own cheap counters (``CacheStats`` per cache
level, ``PrepCache.hits/misses/corrupt``, the agent's loss list, the pool's
watchdog stats); this module *folds* those into telemetry snapshots at
batch boundaries — once per cell, per workload, per epoch — so the hot
loops themselves never pay a per-access telemetry call.

Determinism contract: everything produced by :func:`cell_snapshot`,
:func:`hierarchy_snapshot`, and :func:`prep_cache_snapshot` is a pure
function of simulation *results* (which are themselves deterministic), so
merging them with :func:`repro.telemetry.merge_snapshots` yields
byte-identical counters for ``--jobs 1`` and ``--jobs 4``.  Wall-clock
data stays in :func:`sweep_timings`, which is surfaced separately and
never enters the deterministic sections.
"""

from __future__ import annotations

from repro.telemetry.registry import (
    MAGNITUDE_BUCKETS,
    RATIO_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
)

#: Integer-valued keys of ``CacheStats.summary()`` worth counting.
_STAT_KEYS = (
    "accesses", "hits", "misses", "demand_hits", "demand_misses",
    "evictions", "dirty_evictions", "bypasses",
)


def record_cache_stats(registry, summary: dict, **labels) -> None:
    """Fold one ``CacheStats.summary()`` dict into level-labelled counters."""
    for key in _STAT_KEYS:
        value = summary.get(key, 0)
        if value:
            registry.counter(f"cache.{key}", **labels).inc(value)


def cell_snapshot(cell) -> dict:
    """Deterministic per-cell metrics (pure function of the CellResult)."""
    registry = MetricsRegistry()
    if cell.ok:
        registry.counter("sweep.cells_ok").inc()
        violations = getattr(cell, "violations", ())
        if violations:
            registry.counter("sweep.cells_degraded").inc()
            registry.counter(
                "sweep.cells_degraded_by", policy=cell.policy
            ).inc()
            registry.counter("sanitize.cell_violations").inc(len(violations))
        result = cell.result
        record_cache_stats(registry, result.llc_stats, level="llc",
                           policy=cell.policy)
        registry.histogram(
            "replay.llc_hit_rate", buckets=RATIO_BUCKETS, policy=cell.policy
        ).observe(result.llc_hit_rate)
        registry.histogram(
            "replay.demand_mpki", buckets=MAGNITUDE_BUCKETS, policy=cell.policy
        ).observe(result.demand_mpki)
        decisions = getattr(cell, "decisions", None)
        if decisions:
            record_decision_payload(registry, decisions, policy=cell.policy)
    else:
        registry.counter("sweep.cells_failed").inc()
        registry.counter("sweep.cells_failed_by", policy=cell.policy).inc()
    return registry.snapshot()


def record_decision_payload(registry, payload: dict, **labels) -> None:
    """Fold one decision-trace cell payload into decision metrics.

    Everything here is computed from the payload's integer aggregates
    (pure function of the deterministic replay), so the counters and the
    epoch-regret histogram merge byte-identically across ``--jobs``
    counts.  Regret per decision is ``(1 - grade) / 2``; the histogram
    observes each epoch's *mean* regret, giving an epoch-bucketed view of
    where in the stream a policy loses to OPT.
    """
    summary = payload.get("summary", {})
    for key in ("evictions", "sampled", "dropped", "graded",
                "optimal", "neutral", "harmful"):
        value = summary.get(key, 0)
        if value:
            registry.counter(f"decisions.{key}", **labels).inc(value)
    violations = summary.get("violations", 0)
    if violations:
        registry.counter("decisions.violations", **labels).inc(violations)
    epochs = payload.get("epochs", {})
    decisions_per_epoch = epochs.get("decisions", ())
    neutral_per_epoch = epochs.get("neutral", ())
    harmful_per_epoch = epochs.get("harmful", ())
    histogram = registry.histogram(
        "decisions.epoch_mean_regret", buckets=RATIO_BUCKETS, **labels
    )
    for decisions, neutral, harmful in zip(
        decisions_per_epoch, neutral_per_epoch, harmful_per_epoch
    ):
        if decisions:
            histogram.observe((neutral + 2 * harmful) / (2 * decisions))


def hierarchy_snapshot(hierarchy_stats: dict) -> dict:
    """Pass-1 counters, per level, summed over workloads.

    ``hierarchy_stats`` is ``{workload: per-level summary}`` as recorded on
    :class:`~repro.eval.runner.PreparedWorkload.hierarchy_stats`.  Pass 1
    simulates no LLC, so its ``llc`` level carries only ``cache.accesses``
    (the recorded stream's length) and there are no memory counters.
    """
    registry = MetricsRegistry()
    for stats in hierarchy_stats.values():
        if not stats:
            continue
        for level in ("l1", "l2", "llc"):
            summary = stats.get(level)
            if summary:
                record_cache_stats(registry, summary, level=level,
                                   phase="prepare")
        registry.counter("sweep.workloads_prepared").inc()
    return registry.snapshot()


def prep_cache_snapshot(prep_cache_stats: dict) -> dict:
    """Prepared-workload disk-cache counters (hits/misses/corrupt)."""
    registry = MetricsRegistry()
    for key in ("hits", "misses", "corrupt"):
        value = prep_cache_stats.get(key, 0)
        if value:
            registry.counter(f"prep_cache.{key}").inc(value)
    return registry.snapshot()


def sweep_snapshot(report) -> dict:
    """The deterministic merged telemetry view of one sweep.

    Built exclusively from the report's deterministic contents; per-worker
    (per-cell) snapshots merge through the same order-independent path the
    property tests exercise.
    """
    parts = [cell_snapshot(cell) for cell in report.cells]
    parts.append(hierarchy_snapshot(getattr(report, "hierarchy_stats", {})))
    prep_stats = getattr(report, "prep_cache_stats", {})
    if prep_stats:
        parts.append(prep_cache_snapshot(prep_stats))
    return merge_snapshots(parts)


def sweep_timings(report) -> dict:
    """Wall-clock accounting for one sweep (non-deterministic by nature)."""
    cell_seconds = {
        f"{cell.workload}/{cell.policy}": cell.seconds
        for cell in report.cells
        if getattr(cell, "seconds", None) is not None
    }
    prepare_seconds = dict(getattr(report, "prepare_seconds", {}))
    busy = sum(cell_seconds.values()) + sum(prepare_seconds.values())
    wall = getattr(report, "wall_seconds", 0.0)
    jobs = max(1, getattr(report, "jobs", 1))
    return {
        "wall_seconds": wall,
        "busy_seconds": busy,
        "worker_utilization": busy / (wall * jobs) if wall > 0 else None,
        "prepare_seconds": prepare_seconds,
        "cell_seconds": cell_seconds,
    }


def record_training_epoch(
    registry,
    *,
    epoch: int,
    hit_rate: float,
    losses,
    agent,
    agreement: dict = None,
) -> None:
    """Fold one finished training epoch into the registry.

    ``losses`` is the slice of ``agent.losses`` produced *by this epoch*
    (deterministic given the seed); ``agreement`` is the adapter's
    optimal/harmful/total decision counts when available.
    """
    registry.counter("rl.epochs").inc()
    registry.gauge("rl.epoch").set(epoch)
    registry.gauge("rl.train_hit_rate").set(hit_rate)
    registry.gauge("rl.epsilon").set(agent.epsilon)
    registry.gauge("rl.replay_occupancy").set(
        len(agent.replay) / agent.replay.capacity if agent.replay.capacity else 0.0
    )
    registry.counter("rl.train_steps").inc(len(losses))
    loss_hist = registry.histogram(
        "rl.epoch_mean_loss", buckets=MAGNITUDE_BUCKETS
    )
    if losses:
        mean_loss = sum(losses) / len(losses)
        loss_hist.observe(mean_loss)
        registry.gauge("rl.last_mean_loss").set(mean_loss)
    if agreement:
        total = agreement.get("total", 0)
        registry.counter("rl.decisions").inc(total)
        registry.counter("rl.decisions_optimal").inc(
            agreement.get("optimal", 0)
        )
        registry.counter("rl.decisions_harmful").inc(
            agreement.get("harmful", 0)
        )
        if total:
            registry.gauge("rl.agreement_with_opt").set(
                agreement.get("optimal", 0) / total
            )
