"""One benchmark repetition, run in a fresh process by ``bench/run.py``.

The process imports ``repro`` and the modules a run calls into from the
checkout's ``src/``, loads one scenario, prints a ``ready`` line (the
parent times process start to this line as ``setup_s``), times the
reference loop, runs the scenario once through
``repro.scenarios.runner.run_scenario``, times the reference loop again
and prints one JSON result line.

With ``--traced``, the public entry point of every layer is wrapped from
here, for this one run only, and each call is recorded as a span.  The
program itself is not modified and records nothing.  Traced runs use
``jobs=1``, because spans opened inside forked workers would be lost.

Usage (normally driven by run.py)::

    python3 bench/rep.py --scenario bench/workloads/sweep.yaml --seed 7 \\
        --jobs 2 [--cache-dir DIR] [--traced] [--spans FILE] [--sanitize-probe]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The scenario whose 429.mcf stream the sanitizer probe replays.
PROBE_SCENARIO = ROOT / "bench" / "workloads" / "sweep.yaml"


def import_repro():
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    return repro


def import_runner_stack() -> None:
    """Import every module a run calls into, so set-up time covers it."""
    import repro.eval.parallel  # noqa: F401
    import repro.eval.prep_cache  # noqa: F401
    import repro.eval.runner  # noqa: F401
    import repro.objcache.replay  # noqa: F401
    import repro.scenarios.golden  # noqa: F401
    import repro.scenarios.loader  # noqa: F401
    import repro.scenarios.object_runner  # noqa: F401
    import repro.scenarios.runner  # noqa: F401


# -- spans --------------------------------------------------------------------


def patch(saved: list, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` with ``make(original)``, noted in ``saved``."""
    original = getattr(owner, attr)
    saved.append((owner, attr, original))
    setattr(owner, attr, make(original))


def unpatch(saved: list) -> None:
    """Put back every attribute ``patch`` replaced, newest first."""
    while saved:
        owner, attr, original = saved.pop()
        setattr(owner, attr, original)


class Tracer:
    """In-memory spans around module attributes, restored by ``restore``.

    A span is a dict with ``id``, ``name``, ``parent`` (the id of the span
    open when it started, or None), ``run``, ``start`` and ``end``
    (``perf_counter`` seconds), plus the counts a layer's ``note`` adds.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []
        self._patches = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a spanned call of the original.

        ``note(args, kwargs, result)`` returns counts to store on the span.
        """
        def make(original):
            def traced(*args, **kwargs):
                with self.span(name) as record:
                    result = original(*args, **kwargs)
                    if note is not None:
                        record.update(note(args, kwargs, result))
                    return result
            return traced

        patch(self._patches, owner, attr, make)

    def restore(self) -> None:
        unpatch(self._patches)


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def _policy_name(policy) -> str:
    return policy if isinstance(policy, str) else getattr(policy, "name", "?")


def _entry_bytes(cache, key) -> int:
    path = cache.path(key)
    return path.stat().st_size if path.is_file() else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's entry point at the name its caller looks up."""
    import repro.eval.parallel as parallel
    import repro.objcache.replay as objreplay
    import repro.scenarios.object_runner as object_runner
    import repro.scenarios.runner as runner
    from repro.eval.prep_cache import PrepCache

    tracer.wrap(runner, "scenario_traces", "traces", lambda a, k, r: {
        "records": sum(len(trace.records) for trace in r)})
    tracer.wrap(object_runner, "object_scenario_traces", "traces",
                lambda a, k, r: {
                    "records": sum(len(trace.requests) for trace in r)})
    tracer.wrap(parallel, "parallel_sweep", "sweep")
    tracer.wrap(object_runner, "object_sweep", "sweep")
    tracer.wrap(parallel, "prepare_workload", "pass1", lambda a, k, r: {
        "records": len(_arg(a, k, 1, "trace").records),
        "llc_records": len(r.llc_records)})
    tracer.wrap(parallel, "workload_cache_key", "prep_cache.key")
    tracer.wrap(PrepCache, "load", "prep_cache.load", lambda a, k, r: {
        "hit": r is not None,
        "bytes": _entry_bytes(a[0], a[1]) if r is not None else 0})
    tracer.wrap(PrepCache, "store", "prep_cache.store", lambda a, k, r: {
        "bytes": _entry_bytes(a[0], a[1])})
    tracer.wrap(parallel, "replay", "replay", lambda a, k, r: {
        "policy": _policy_name(_arg(a, k, 1, "policy")),
        "accesses": len(_arg(a, k, 0, "prepared").llc_records)})
    # Belady's next-use precompute runs just before its replay call.
    tracer.wrap(parallel, "BeladyPolicy", "replay", lambda a, k, r: {
        "policy": "belady", "accesses": 0})
    tracer.wrap(objreplay, "replay_object_trace", "objcache",
                lambda a, k, r: {
                    "policy": _arg(a, k, 2, "policy"),
                    "requests": len(_arg(a, k, 0, "trace").requests)})


# -- per-layer metrics --------------------------------------------------------

#: Policy names as metric-name segments (names allow only [A-Za-z0-9_.-]).
CPU_POLICIES = {"lru": "lru", "srrip": "srrip", "drrip": "drrip",
                "ship++": "ship_pp", "rlr": "rlr", "belady": "belady"}
OBJECT_POLICIES = ("lru", "lru_size", "gdsf", "rlr", "rlr_size")


def _ratio(numerator, denominator, scale=1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced run's spans (0 for absent layers)."""
    own = self_times(spans)
    total = {}
    counts = {}

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    for span in spans:
        name, seconds = span["name"], own[span["id"]]
        total[name] = total.get(name, 0.0) + seconds
        if name in ("traces", "pass1"):
            add(name + ".records", span["records"])
        if name == "pass1":
            add("pass1.llc_records", span["llc_records"])
        if name in ("prep_cache.load", "prep_cache.store"):
            add("prep_cache.bytes", span["bytes"])
        if name == "prep_cache.load":
            add("prep_cache.loads", 1)
            add("prep_cache.hits", int(span["hit"]))
        if name == "replay":
            add(f"replay.{span['policy']}.s", seconds)
            add(f"replay.{span['policy']}.n", span["accesses"])
        if name == "objcache":
            add(f"objcache.{span['policy']}.s", seconds)
            add(f"objcache.{span['policy']}.n", span["requests"])
    metrics = {
        "traces.self_s": total.get("traces", 0.0),
        "traces.records_per_s": _ratio(counts.get("traces.records", 0),
                                       total.get("traces", 0.0)),
        "pass1.self_s": total.get("pass1", 0.0),
        "pass1.ns_per_record": _ratio(total.get("pass1", 0.0),
                                      counts.get("pass1.records", 0), 1e9),
        "pass1.llc_records": counts.get("pass1.llc_records", 0),
        "prep_cache.key_s": total.get("prep_cache.key", 0.0),
        "prep_cache.load_s": total.get("prep_cache.load", 0.0),
        "prep_cache.store_s": total.get("prep_cache.store", 0.0),
        "prep_cache.bytes": counts.get("prep_cache.bytes", 0),
        "prep_cache.hit_ratio": _ratio(counts.get("prep_cache.hits", 0),
                                       counts.get("prep_cache.loads", 0)),
        "replay.self_s": total.get("replay", 0.0),
        "sweep.self_s": total.get("sweep", 0.0),
        "objcache.self_s": total.get("objcache", 0.0),
        # The root span's own time is run_scenario outside every other
        # layer: cell payloads, conservation and expectation checks.
        "report.self_s": total.get("run", 0.0) + total.get("report", 0.0),
    }
    for policy, label in CPU_POLICIES.items():
        metrics[f"replay.{label}.ns_per_access"] = _ratio(
            counts.get(f"replay.{policy}.s", 0.0),
            counts.get(f"replay.{policy}.n", 0), 1e9)
    for policy in OBJECT_POLICIES:
        metrics[f"objcache.{policy}.ns_per_request"] = _ratio(
            counts.get(f"objcache.{policy}.s", 0.0),
            counts.get(f"objcache.{policy}.n", 0), 1e9)
    return metrics


def sweep_metrics(reports) -> dict:
    """Pool accounting from the SweepReports of one run."""
    tasks = 0
    busy = 0.0
    wall = 0.0
    jobs = 1
    for report in reports:
        prepared = [name for name in report.prepare_seconds
                    if name not in report.cached_workloads]
        tasks += len(report.cells) + len(prepared)
        busy += sum(report.prepare_seconds[name] for name in prepared)
        busy += sum(cell.seconds or 0.0 for cell in report.cells)
        wall += report.wall_seconds
        jobs = report.jobs
    return {
        "sweep.tasks": tasks,
        "sweep.worker_busy_s": busy,
        "sweep.parallel_efficiency": _ratio(busy, jobs * wall),
    }


def replayed_accesses(reports) -> int:
    """LLC accesses (CPU) or object requests replayed, summed over cells."""
    total = 0
    for report in reports:
        for cell in report.cells:
            if not cell.ok:
                continue
            if report.hierarchy_stats:
                stats = report.hierarchy_stats[cell.workload]
                total += stats["llc"]["accesses"]
            else:
                total += cell.result.accesses
    return total


# -- one run ------------------------------------------------------------------


@contextmanager
def capture_reports(reports: list):
    """Keep every SweepReport a run returns (a pass-through, no timers)."""
    import repro.eval.parallel as parallel
    import repro.scenarios.object_runner as object_runner

    def keep(original):
        def passthrough(*args, **kwargs):
            report = original(*args, **kwargs)
            reports.append(report)
            return report
        return passthrough

    saved = []
    patch(saved, parallel, "parallel_sweep", keep)
    patch(saved, object_runner, "object_sweep", keep)
    try:
        yield
    finally:
        unpatch(saved)


def run_once(scenario, jobs: int, cache_dir, tracer: Tracer = None):
    """Run the scenario once; returns (payload, digest, reports, wall_s).

    The timed region is one ``run_scenario`` call plus the report digest,
    the whole experiment from trace generation to the canonical report.
    """
    from repro.scenarios.golden import report_digest
    from repro.scenarios.runner import run_scenario

    reports = []
    with capture_reports(reports):
        if tracer is None:
            started = time.perf_counter()
            payload = run_scenario(scenario, jobs=jobs, cache_dir=cache_dir)
            digest = report_digest(payload)
            return payload, digest, reports, time.perf_counter() - started
        install_layers(tracer)
        try:
            started = time.perf_counter()
            with tracer.span("run"):
                payload = run_scenario(scenario, jobs=jobs,
                                       cache_dir=cache_dir)
                with tracer.span("report"):
                    digest = report_digest(payload)
            wall = time.perf_counter() - started
        finally:
            tracer.restore()
        return payload, digest, reports, wall


def sanitize_overhead(seed: int) -> float:
    """Cost of the ``normal`` sanitizer relative to ``off`` on replay.

    Replays the 429.mcf stream of ``sweep.yaml`` (with the benchmark's
    seed), prepared once, under lru and rlr in the order off, normal,
    normal, off, three times over, and compares the fastest replay of each
    mode (host interference only ever slows a replay down).
    """
    from repro.eval.runner import prepare_workload, replay
    from repro.scenarios.loader import load_scenario

    config = load_scenario(PROBE_SCENARIO).eval_config(seed=seed)
    prepared = prepare_workload(config, config.trace("429.mcf"))
    seconds = {"off": [], "normal": []}
    for mode in ("off", "normal", "normal", "off") * 3:
        started = time.perf_counter()
        for policy in ("lru", "rlr"):
            replay(prepared, policy, sanitize=mode)
        seconds[mode].append(time.perf_counter() - started)
    return min(seconds["normal"]) / min(seconds["off"]) - 1.0


def cell_count(scenario) -> int:
    """Cells one run of the scenario attempts."""
    if scenario.scenario_kind == "object_cache" or scenario.mixes is None:
        rows = len(scenario.workloads)
    else:
        rows = (scenario.mixes.random_count
                or len(scenario.mixes.explicit))
    return rows * len(scenario.policies) * len(scenario.run_seeds)


def with_seed(scenario, seed: int):
    """The scenario with its trace seed replaced by the benchmark's."""
    return dataclasses.replace(
        scenario, config=dataclasses.replace(scenario.config, seed=seed),
        seeds=())


def reference_seconds() -> float:
    """Host time of a fixed pure-Python LRU loop, independent of ``repro``.

    Other tenants of a shared host slow every process for minutes at a
    time; this loop slows with them, so the run divides its timings by it.
    """
    cache = {}
    state = 1
    started = time.perf_counter()
    for step in range(250_000):
        state = (state * 1103515245 + 12345) % 2**31
        key = state % 6151
        if key in cache:
            cache[key] = cache.pop(key)
        else:
            if len(cache) >= 4096:
                del cache[next(iter(cache))]
            cache[key] = step
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """Max resident set of this process and of its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--sanitize-probe", action="store_true")
    args = parser.parse_args(argv)

    import_repro()
    import_runner_stack()
    from repro.scenarios.loader import load_scenario

    scenario = with_seed(load_scenario(args.scenario), args.seed)
    cells = cell_count(scenario)
    # time.monotonic() is CLOCK_MONOTONIC, shared with the parent process.
    _emit({"ready": True, "ready_at": time.monotonic(), "cells": cells})

    result = {"cells": cells}
    tracer = Tracer(run_id=f"{scenario.name}-{args.seed}") \
        if args.traced else None
    reference = reference_seconds()
    try:
        payload, digest, reports, wall = run_once(
            scenario, args.jobs, args.cache_dir, tracer)
    except Exception as error:  # noqa: BLE001 - reported as failed cells
        result.update(error=f"{error.__class__.__name__}: {error}",
                      failed_cells=cells)
        _emit(result)
        return 1
    result.update(
        wall_s=wall,
        # Host speed on both sides of the run; a brief stall inflates one.
        reference_s=min(reference, reference_seconds()),
        digest=digest,
        ok=bool(payload["ok"]),
        failed_cells=sum(cell["status"] != "ok" for cell in payload["cells"]),
        accesses=replayed_accesses(reports),
        peak_rss_mb=peak_rss_mb(),
        sweep=sweep_metrics(reports),
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        result["attributed_s"] = sum(self_times(tracer.spans).values())
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    if args.sanitize_probe:
        result["sanitize_overhead"] = sanitize_overhead(args.seed)
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
