"""Repository benchmark: real scenario experiments, end to end and by layer.

Each workload is a scenario under ``bench/workloads/`` run through the
public entry points (``load_scenario``, ``run_scenario``,
``report_digest``).  Every repetition runs in a fresh process
(``bench/rep.py``); this parent never imports ``repro``.

Usage::

    python3 bench/run.py --workload sweep-cold [--seed 7] [--seconds 30] \\
        [--trace 0|1] [--out bench/out]
    python3 bench/run.py set OUT.json [--rounds 5] [--seed 7]
    python3 bench/run.py compare A.json B.json

``--trace 0`` repeats the untraced experiment until ``--seconds`` are used
and reports the end-to-end metrics over the repetitions.
``--trace 1`` reports the per-layer metrics from traced repetitions (see
README.md).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

DEFAULT_SEED = 7
#: Equal to ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 30
#: Every run ends within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0
#: The seed whose report digests are pinned in digests.json.
PINNED_SEED = 7


@dataclass(frozen=True)
class Workload:
    scenario: str  #: file under bench/workloads/
    jobs: int  #: worker processes for the untraced runs
    #: "cold": an empty prep-cache dir per repetition; "warm": one dir
    #: filled by an untimed run first; "none": no prep-cache at all.
    prep_cache: str


WORKLOADS = {
    "sweep-cold": Workload("sweep.yaml", jobs=2, prep_cache="cold"),
    "sweep-warm": Workload("sweep.yaml", jobs=2, prep_cache="warm"),
    "mix4-shared": Workload("mix4-shared.yaml", jobs=1, prep_cache="none"),
    "objcache-zipf": Workload("objcache-zipf.yaml", jobs=1, prep_cache="none"),
}

END_TO_END = {  # name -> unit; "ref" is one run of rep.reference_seconds
    "setup_s": "s",
    "wall_ref": "ref",
    "accesses_per_ref": "1/ref",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "traces.self_s": "s", "traces.records_per_s": "1/s",
    "pass1.self_s": "s", "pass1.ns_per_record": "ns",
    "pass1.llc_records": "count",
    "prep_cache.key_s": "s", "prep_cache.load_s": "s",
    "prep_cache.store_s": "s", "prep_cache.bytes": "bytes",
    "prep_cache.hit_ratio": "fraction",
    "replay.self_s": "s",
    "replay.lru.ns_per_access": "ns", "replay.srrip.ns_per_access": "ns",
    "replay.drrip.ns_per_access": "ns", "replay.ship_pp.ns_per_access": "ns",
    "replay.rlr.ns_per_access": "ns", "replay.belady.ns_per_access": "ns",
    "sanitize.overhead_frac": "fraction",
    "sweep.self_s": "s", "sweep.tasks": "count", "sweep.worker_busy_s": "s",
    "sweep.parallel_efficiency": "fraction",
    "objcache.self_s": "s",
    "objcache.lru.ns_per_request": "ns",
    "objcache.lru_size.ns_per_request": "ns",
    "objcache.gdsf.ns_per_request": "ns",
    "objcache.rlr.ns_per_request": "ns",
    "objcache.rlr_size.ns_per_request": "ns",
    "report.self_s": "s",
    "trace_overhead_frac": "fraction",
}

#: Self-time layers whose shares of the traced wall are printed.
SHARE_LAYERS = ("traces.self_s", "pass1.self_s", "prep_cache.key_s",
                "prep_cache.load_s", "prep_cache.store_s", "replay.self_s",
                "objcache.self_s", "sweep.self_s", "report.self_s")


def worker_limit() -> int:
    return len(os.sched_getaffinity(0))


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- repetitions --------------------------------------------------------------


def _child_env(hash_seed: int) -> dict:
    # REPRO_* variables (sanitizer mode, fault injection, ...) would change
    # what the scenario runs; the benchmark pins all of it in its files.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    # String hashing moves replay time by about 10% between processes.
    # Each repetition gets its own hash seed, derived from --seed, so a run
    # spans several hash layouts and still repeats exactly.
    env["PYTHONHASHSEED"] = str(hash_seed % 2**32)
    return env


def spawn(workload: Workload, seed: int, jobs: int, cache_dir, deadline: float,
          hash_seed: int, traced=False, spans=None, probe=False) -> dict:
    """Run one repetition in a fresh process and collect its result.

    Returns the repetition's result line plus ``setup_s`` (process start
    to the ready line) and ``elapsed_s`` (process start to exit).
    """
    command = [sys.executable, str(BENCH / "rep.py"),
               "--scenario", str(BENCH / "workloads" / workload.scenario),
               "--seed", str(seed), "--jobs", str(jobs)]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    if traced:
        command += ["--traced"]
    if spans is not None:
        command += ["--spans", str(spans)]
    if probe:
        command += ["--sanitize-probe"]
    started = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(hash_seed), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        out, _ = process.communicate()
    finally:
        # The session also holds any pool workers the repetition forked.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    lines = [json.loads(line) for line in out.splitlines()
             if line.startswith("{")]
    if not lines or not lines[0].get("ready"):
        raise SystemExit(f"repetition did not start (exit "
                         f"{process.returncode}): {' '.join(command)}")
    rep = lines[-1] if len(lines) > 1 else {}
    rep.setdefault("cells", lines[0]["cells"])
    if len(lines) < 2:
        rep.update(error=f"no result (exit {process.returncode})",
                   failed_cells=rep["cells"])
    rep["setup_s"] = lines[0]["ready_at"] - started
    rep["elapsed_s"] = time.monotonic() - started
    return rep


def _cache_dir(workload: Workload, scratch: Path):
    if workload.prep_cache == "warm":
        return scratch / "warm"
    if workload.prep_cache == "cold":
        return Path(tempfile.mkdtemp(dir=scratch, prefix="cold-"))
    return None


def measure(name: str, seed: int, seconds: float, trace: bool,
            out: Path) -> dict:
    """All repetitions of one benchmark run, grouped by role."""
    workload = WORKLOADS[name]
    jobs = min(workload.jobs, worker_limit())
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    hash_seeds = itertools.count(seed * 1000)
    groups = {"prime": [], "untraced": [], "sweep": [], "traced": []}
    scratch = Path(tempfile.mkdtemp(dir=out, prefix=f"{name}-"))

    def one(group: str, jobs: int, hash_seed=None, **options) -> float:
        if hash_seed is None:
            hash_seed = next(hash_seeds)
        cache_dir = _cache_dir(workload, scratch)
        try:
            rep = spawn(workload, seed, jobs, cache_dir, deadline, hash_seed,
                        **options)
        finally:
            if workload.prep_cache == "cold":
                shutil.rmtree(cache_dir, ignore_errors=True)
        groups[group].append(rep)
        return rep["elapsed_s"]

    def until_done(step) -> None:
        """Repeat ``step`` until the next one would end past ``seconds``."""
        durations = []
        while True:
            durations.append(step())
            elapsed = time.monotonic() - started
            if (elapsed + statistics.median(durations) > seconds
                    or elapsed > HARD_LIMIT_S / 2):
                return

    def pair() -> float:
        # Both halves share a hash seed, so the overhead compares like
        # with like.
        index = len(groups["traced"])
        hash_seed = next(hash_seeds)
        spans = out / f"spans-{name}-seed{seed}-{index}.jsonl"
        return (one("untraced", 1, hash_seed)
                + one("traced", 1, hash_seed, traced=True, spans=spans,
                      probe=index == 0))

    try:
        if workload.prep_cache == "warm":
            one("prime", jobs)
        if not trace:
            until_done(lambda: one("untraced", jobs))
        else:
            # The pool accounting needs the workload's own jobs; spans need
            # jobs=1, so the overhead reference is an untraced jobs=1 run.
            one("sweep", jobs)
            until_done(pair)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return groups


# -- checks and metrics -------------------------------------------------------


def load_pinned() -> dict:
    return json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def check(name: str, seed: int, reps: list, pinned: dict) -> list:
    """Mark failed cells on each repetition; return the problems found."""
    problems = []
    digests = sorted({rep["digest"] for rep in reps if "digest" in rep})
    if len(digests) > 1:
        problems.append(f"repetitions disagree on the report digest: "
                        f"{', '.join(d[:12] for d in digests)}")
    expected = pinned.get(name) if seed == PINNED_SEED else None
    if expected is not None and digests and digests != [expected]:
        problems.append(f"report digest {digests[0][:12]} != pinned "
                        f"seed-{PINNED_SEED} digest {expected[:12]}")
    digest_failed = bool(problems)
    for rep in reps:
        if "error" in rep:
            problems.append(f"repetition raised: {rep['error']}")
        elif not rep["ok"]:
            problems.append("conservation or expectation check failed")
        elif not digest_failed:
            continue
        rep["failed_cells"] = rep["cells"]
    return problems


def wall_in_references(reps: list) -> float:
    """Fastest wall ÷ fastest reference loop over the repetitions.

    Other tenants of a shared host only ever slow a repetition down, for
    seconds (best of n absorbs those) or for minutes (the reference loop
    slows with the host, so the ratio holds).
    """
    return (min(rep["wall_s"] for rep in reps)
            / min(rep["reference_s"] for rep in reps))


def report_end_to_end(groups: dict) -> dict:
    """Print and return the end-to-end metrics of an untraced run.

    Set-up time and memory are medians over the run's processes.
    """
    reps = groups["untraced"]
    samples = {
        "wall_s": [rep["wall_s"] for rep in reps],
        "reference_s": [rep["reference_s"] for rep in reps],
        "setup_s": [rep["setup_s"] for rep in groups["prime"] + reps],
    }
    for key, values in samples.items():
        q1, median, q3 = quartiles(values)
        print(f"{key:12s} n={len(values):<3d} min {min(values):.6g}  q1 "
              f"{q1:.6g}  median {median:.6g}  q3 {q3:.6g}  s")
    wall_ref = wall_in_references(reps)
    fastest = min(reps, key=lambda rep: rep["wall_s"])
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_ref": wall_ref,
        "accesses_per_ref": fastest["accesses"] / wall_ref,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    for key, value in values.items():
        print(f"{key:16s} {value:14.6g} {END_TO_END[key]}")
    return {key: {"value": value, "unit": END_TO_END[key]}
            for key, value in values.items()}


def report_per_layer(name: str, groups: dict) -> dict:
    """Print and return the per-layer metrics of a traced run.

    Layer numbers come from the fastest traced repetition; the pool
    accounting from the repetition run with the workload's own jobs.
    """
    fastest = min(groups["traced"], key=lambda rep: rep["wall_s"])
    values = dict(fastest["layers"])
    values.update(groups["sweep"][0]["sweep"])
    values["sanitize.overhead_frac"] = \
        groups["traced"][0]["sanitize_overhead"]
    values["trace_overhead_frac"] = (wall_in_references(groups["traced"])
                                     / wall_in_references(groups["untraced"])
                                     - 1.0)
    for key, unit in PER_LAYER_UNITS.items():
        print(f"{key:36s} {values[key]:14.6g} {unit}")
    wall = fastest["wall_s"]
    for key in SHARE_LAYERS:
        print(f"share of traced wall  {key:24s} {values[key] / wall:7.2%}")
    print(f"span self-times sum to {fastest['attributed_s'] / wall:.4%} of "
          f"the traced wall {wall:.4f} s (traced: jobs=1; untraced: jobs="
          f"{min(WORKLOADS[name].jobs, worker_limit())})")
    return {key: {"value": values[key], "unit": unit}
            for key, unit in PER_LAYER_UNITS.items()}


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    groups = measure(name, seed, seconds, trace, out)
    record = out / f"reps-{name}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps(groups, indent=1) + "\n", encoding="utf-8")
    reps = [rep for group in groups.values() for rep in group]
    problems = check(name, seed, reps, load_pinned())
    attempted = sum(rep["cells"] for rep in reps)
    failed = sum(rep["failed_cells"] for rep in reps)
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"repetitions {len(reps)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} "
          "cells failed or degraded)")
    metrics = {}
    if not problems:
        metrics = (report_per_layer(name, groups) if trace
                   else report_end_to_end(groups))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems and failed == 0 else 1


# -- sets and comparison ------------------------------------------------------


def run_set(path: Path, rounds: int, seed: int) -> int:
    """``rounds`` untraced rounds of every workload, then one traced round."""
    plan = [(name, seed + index, 0) for index in range(rounds)
            for name in WORKLOADS]
    plan += [(name, seed, 1) for name in WORKLOADS]
    runs = []
    for name, run_seed, trace in plan:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(run_seed),
                   "--seconds", str(DEFAULT_SECONDS), "--trace", str(trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and \
            lines[-1].startswith("{") else None
        runs.append({"workload": name, "seed": run_seed, "trace": trace,
                     "exit": done.returncode, "result": result})
        print(f"{name} seed {run_seed} trace {trace}: exit "
              f"{done.returncode}", file=sys.stderr)
        path.write_text(json.dumps({"runs": runs}, indent=1) + "\n",
                        encoding="utf-8")
    return 0 if all(run["exit"] == 0 for run in runs) else 1


def verdict(base: list, new: list, bound: float, better: str) -> str:
    """within-bound / worse / unresolved for one (workload, metric)."""
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    new_q1, new_median, new_q3 = quartiles(new)
    spread = max((base_q3 - base_q1) / base_median,
                 (new_q3 - new_q1) / new_median)
    worse_by = sign * (new_median - base_median) / base_median
    if spread > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in base)
        return "within-bound" if all_better else "unresolved"
    return "worse" if worse_by > bound else "within-bound"


def failure_counts(sets: list) -> list:
    """Per set, workload -> (failed, attempted) cells over all its runs.

    A run that printed no result counts as wholly failed, with as many
    cells as the largest run of that workload in either set.
    """
    largest = {}
    for run in itertools.chain(*sets):
        if run["result"] is not None:
            largest[run["workload"]] = max(largest.get(run["workload"], 1),
                                           run["result"]["attempted"])
    counts = []
    for runs in sets:
        totals = {}
        for run in runs:
            name = run["workload"]
            cells = largest.get(name, 1)
            result = run["result"] or {"failed": cells, "attempted": cells}
            failed, attempted = totals.get(name, (0, 0))
            totals[name] = (failed + result["failed"],
                            attempted + result["attempted"])
        counts.append(totals)
    return counts


def compare(path_a: Path, path_b: Path) -> int:
    declared = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [json.loads(path.read_text(encoding="utf-8"))["runs"]
            for path in (path_a, path_b)]
    sets = []
    for set_runs in runs:
        values = {}
        for run in set_runs:
            if run["trace"] or run["exit"] != 0:
                continue
            for key, metric in run["result"]["metrics"].items():
                values.setdefault((run["workload"], key), []).append(
                    metric["value"])
        sets.append(values)
    failures = failure_counts(runs)
    worse = 0
    print(f"{'workload':14s} {'metric':15s} {'A median [q1, q3]':>42s} "
          f"{'B median [q1, q3]':>42s} {'change':>8s}  verdict (bound)")
    for name in WORKLOADS:
        fractions = []
        cells = []
        for totals in failures:
            failed, attempted = totals.get(name, (0, 0))
            fractions.append(failed / attempted if attempted else 0.0)
            cells.append(f"{fractions[-1]:.4f} ({failed}/{attempted} cells)")
        result = "worse" if fractions[1] > fractions[0] else "within-bound"
        worse += result == "worse"
        print(f"{name:14s} {'failed_frac':15s} {cells[0]:>42s} "
              f"{cells[1]:>42s} {'':8s}  {result} (any increase)")
        for metric in declared["end_to_end"]:
            key = (name, metric["name"])
            if key not in sets[0] or key not in sets[1]:
                print(f"{name:14s} {metric['name']:15s} missing from a set")
                worse += 1
                continue
            cells = []
            for values in sets:
                q1, median, q3 = quartiles(values[key])
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] "
                             f"n={len(values[key])}")
            base, new = sets[0][key], sets[1][key]
            change = statistics.median(new) / statistics.median(base) - 1.0
            result = verdict(base, new, metric["bound"], metric["better"])
            worse += result == "worse"
            print(f"{name:14s} {metric['name']:15s} {cells[0]:>42s} "
                  f"{cells[1]:>42s} {change:+8.2%}  {result} "
                  f"({metric['bound']:.0%})")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["set"]:
        parser = argparse.ArgumentParser(prog="run.py set")
        parser.add_argument("path", type=Path)
        parser.add_argument("--rounds", type=int, default=5)
        parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
        args = parser.parse_args(argv[1:])
        return run_set(args.path, args.rounds, args.seed)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**31:
        parser.error("--seed must be in [0, 2^31)")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_benchmark(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.out.resolve())


if __name__ == "__main__":
    sys.exit(main())
