"""Preflight validation for run inputs (``repro validate``).

Cheap, read-only checks run *before* committing a sweep or evaluation to
hours of simulation: a trace file that fails here would have failed
mid-sweep (or worse, been silently mis-parsed), and an agent ``.npz``
with NaN weights would have produced garbage hit rates.  Each validator
returns a :class:`ValidationReport`; nothing here mutates the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.sanitize.errors import TraceFormatError


@dataclass
class ValidationReport:
    """Outcome of one preflight check."""

    target: str  #: the file that was checked
    kind: str  #: "trace" | "agent"
    ok: bool = True
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    summary: str = ""  #: one human line about what was validated

    def fail(self, message: str) -> None:
        self.ok = False
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def format(self) -> str:
        lines = [f"{'PASS' if self.ok else 'FAIL'}  {self.kind}  {self.target}"]
        if self.summary:
            lines.append(f"  {self.summary}")
        lines.extend(f"  error: {message}" for message in self.errors)
        lines.extend(f"  warning: {message}" for message in self.warnings)
        return "\n".join(lines)


def validate_trace_file(path, quarantine: bool = False) -> ValidationReport:
    """Fully parse a trace file (CSV or binary) without simulating it.

    With ``quarantine=True`` bad records are reported as warnings (the way
    a ``--quarantine`` sweep would treat them) instead of failing the
    check.
    """
    import warnings as warnings_module

    from repro.traces.trace_io import (
        TraceQuarantineWarning,
        load_trace,
        load_trace_binary,
    )

    path = Path(path)
    report = ValidationReport(target=str(path), kind="trace")
    if not path.is_file():
        report.fail("file does not exist")
        return report
    binary = path.suffix not in (".csv", ".gz", ".txt")
    if binary:
        with open(path, "rb") as handle:
            binary = handle.read(4) == b"RPTR"
    loader = load_trace_binary if binary else load_trace
    try:
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always", TraceQuarantineWarning)
            trace = loader(path, quarantine=quarantine)
        for warning in caught:
            if issubclass(warning.category, TraceQuarantineWarning):
                report.warn(str(warning.message))
    except TraceFormatError as error:
        report.fail(str(error))
        return report
    if not trace.records:
        report.fail("trace parsed but contains zero records")
        return report
    report.summary = (
        f"{'binary' if binary else 'csv'} trace {trace.name!r}: "
        f"{len(trace.records)} records, "
        f"{trace.footprint_lines()} distinct lines, "
        f"{trace.instruction_count} instructions"
    )
    return report


def validate_object_trace_file(path) -> ValidationReport:
    """Fully parse an object trace (``.objtrace``/``.objcsv``) file.

    Wraps :func:`repro.objcache.trace_io.validate_object_trace_file` (which
    keeps scanning past the first bad record) into the standard report: one
    error line per problem, with line numbers.
    """
    from repro.objcache.trace_io import load_object_trace
    from repro.objcache.trace_io import (
        validate_object_trace_file as scan_object_trace,
    )

    path = Path(path)
    report = ValidationReport(target=str(path), kind="objtrace")
    if not path.is_file():
        report.fail("file does not exist")
        return report
    for problem in scan_object_trace(path):
        report.fail(problem)
    if report.ok:
        trace = load_object_trace(path)
        report.summary = (
            f"object trace {trace.name!r}: {len(trace.requests)} requests, "
            f"{trace.unique_objects()} distinct objects, "
            f"{trace.total_bytes} bytes requested"
        )
    return report


def validate_agent_file(path) -> ValidationReport:
    """Check a trained-agent ``.npz`` (see :func:`repro.rl.trainer.save_agent`).

    Verifies the archive loads, carries every required key, that the weight
    matrices are finite and mutually consistent with the declared
    ``meta`` geometry, and that the recorded feature layout reproduces the
    declared input width on this code base.
    """
    import numpy as np

    report = ValidationReport(target=str(path), kind="agent")
    if not Path(path).is_file():
        report.fail("file does not exist")
        return report
    try:
        data = np.load(path)
    except Exception as error:  # numpy raises several unrelated types here
        report.fail(f"not a loadable .npz archive ({error})")
        return report
    required = ("w1", "b1", "w2", "b2", "meta", "features", "geometry")
    missing = [key for key in required if key not in data]
    if missing:
        report.fail(f"missing key(s): {', '.join(missing)}")
        return report
    input_size, hidden_size, output_size = (int(v) for v in data["meta"])
    shapes = {
        "w1": (input_size, hidden_size),
        "b1": (hidden_size,),
        "w2": (hidden_size, output_size),
        "b2": (output_size,),
    }
    for key, expected in shapes.items():
        array = data[key]
        if array.shape != expected:
            report.fail(
                f"{key} shape {array.shape} does not match meta-declared "
                f"{expected}"
            )
            continue
        bad = int(array.size - np.isfinite(array).sum())
        if bad:
            report.fail(f"{key} holds {bad} non-finite value(s)")
    ways, num_sets = (int(v) for v in data["geometry"])
    if ways != output_size:
        report.fail(
            f"geometry ways={ways} disagrees with network output "
            f"size {output_size}"
        )
    if report.ok:
        from repro.rl.features import FeatureExtractor

        features = [str(name) for name in data["features"]]
        try:
            extractor = FeatureExtractor(
                ways=ways, num_sets=num_sets, enabled=features
            )
        except (KeyError, ValueError) as error:
            report.fail(f"feature layout not reconstructible: {error}")
        else:
            if extractor.size != input_size:
                report.fail(
                    f"feature layout yields {extractor.size} inputs but the "
                    f"network expects {input_size}"
                )
    if report.ok:
        report.summary = (
            f"{input_size}-{hidden_size}-{output_size} network, "
            f"{len(data['features'])} features, {ways}-way x {num_sets} sets"
        )
    return report


def validate_scenario_file(path) -> ValidationReport:
    """Schema-validate a scenario file (YAML/JSON) without running it.

    Every problem the scenario loader collects — unknown keys, unknown
    policy or workload names, out-of-range geometry — becomes one error
    line, so a hand-edited scenario fails with a complete fix list.
    """
    from repro.scenarios.loader import load_scenario
    from repro.scenarios.schema import ScenarioError

    path = Path(path)
    report = ValidationReport(target=str(path), kind="scenario")
    try:
        scenario = load_scenario(path)
    except ScenarioError as error:
        for problem in error.problems:
            report.fail(problem)
        return report
    cells = (
        len(scenario.workload_names) * len(scenario.policies)
        * len(scenario.run_seeds)
    )
    kind = getattr(scenario, "scenario_kind", "cpu_cache")
    report.summary = (
        f"{kind} scenario {scenario.name!r}: "
        f"{len(scenario.workloads)} workload(s), "
        f"{len(scenario.policies)} policy(ies), {len(scenario.run_seeds)} "
        f"seed(s) -> {cells} cell(s), sanitize={scenario.sanitize}"
        + (", golden" if scenario.golden else "")
    )
    return report


def validate_bench_file(path) -> ValidationReport:
    """Preflight a ``BENCH_*.json`` snapshot: bench name, schema version,
    numeric rates, environment with a git stamp, and phase-sum
    reconciliation within 1%."""
    import json

    path = Path(path)
    report = ValidationReport(target=str(path), kind="bench")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        report.fail(f"cannot read: {error}")
        return report
    except ValueError as error:
        report.fail(f"does not parse as JSON: {error}")
        return report
    if not isinstance(payload, dict):
        report.fail("top level is not a JSON object")
        return report
    for problem in _bench_payload_problems(payload):
        report.fail(problem)
    if report.ok:
        git = payload.get("environment", {}).get("git", {}) or {}
        sha = (git.get("sha") or "untracked")[:10]
        report.summary = (
            f"bench {payload.get('bench')!r} schema "
            f"{payload.get('schema')}: {len(payload['rates'])} rate(s), "
            f"git {sha}"
        )
    return report


def _bench_payload_problems(payload: dict) -> list:
    """Schema problems with one bench snapshot."""
    from repro.eval.bench import BENCH_SCHEMA_VERSION, BENCHES

    problems = []
    name = payload.get("bench")
    if name not in BENCHES:
        problems.append(
            f"unknown bench name {name!r} (expected one of "
            f"{tuple(BENCHES)})"
        )
    schema = payload.get("schema")
    if not isinstance(schema, int) or schema < 1:
        problems.append(
            f"missing/invalid schema version {schema!r} "
            f"(current is {BENCH_SCHEMA_VERSION})"
        )
    elif schema > BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema {schema} is newer than this tree understands "
            f"({BENCH_SCHEMA_VERSION})"
        )
    environment = payload.get("environment")
    if not isinstance(environment, dict) or "python" not in environment:
        problems.append("environment block missing (python/machine/git)")
    elif not isinstance(environment.get("git"), dict):
        problems.append(
            "environment.git stamp missing (sha + dirty; schema >= 2)"
        )
    rates = payload.get("rates")
    if not isinstance(rates, dict):
        problems.append("rates must be an object")
    else:
        for key, rate in sorted(rates.items()):
            if not isinstance(rate, (int, float)) or rate < 0:
                problems.append(f"rate {key!r} is not a number >= 0: {rate!r}")
    for key, profile in sorted((payload.get("phases") or {}).items()):
        reconciliation = (
            profile.get("reconciliation") if isinstance(profile, dict)
            else None
        )
        if not isinstance(reconciliation, dict):
            problems.append(f"phases[{key!r}] has no reconciliation block")
            continue
        error = reconciliation.get("relative_error")
        if not isinstance(error, (int, float)) or error > 0.01:
            problems.append(
                f"phases[{key!r}] phase sum does not reconcile with loop "
                f"wall time (relative error {error!r} > 1%)"
            )
    return problems
