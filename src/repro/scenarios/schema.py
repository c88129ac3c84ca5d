"""The declarative scenario model and its validation.

A *scenario* is an experiment as data: which workloads (built-in models or
inline pattern mixes), at what evaluation scale, under which replacement
policies and sanitizer mode, with which seeds — plus *expected-invariant
assertions* (hit-rate bounds, Belady-regret ceilings, conservation laws)
that turn a run into a checkable claim instead of a pile of numbers.

Everything here is pure data + validation; no simulation happens in this
module.  :mod:`repro.scenarios.loader` parses YAML/JSON files into these
objects and :mod:`repro.scenarios.runner` executes them.

Validation is whole-file: every problem in a scenario dict is collected and
reported at once (``ScenarioError.problems``), each message prefixed with a
``path.to.the[2].field`` locator, so a hand-edited scenario fails with a
complete fix list rather than one error per attempt.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.traces.spec_models import ALL_WORKLOADS, PatternSpec

#: Recognized synthetic pattern kinds (repro.traces.spec_models).
PATTERN_KINDS = (
    "stream", "stride", "cyclic", "random", "chase", "zipf", "scan_hot",
    "multi_stream",
)

#: Recognized expectation checks.
EXPECTATION_CHECKS = (
    "conservation", "hit_rate", "speedup", "regret", "belady_dominates",
)

#: Sanitizer modes a scenario may request (repro.sanitize).
SANITIZE_MODES = ("off", "normal", "strict")

#: Scenario kinds the loader can dispatch to.  A file selects its kind with
#: a top-level ``kind`` key; absent means the original CPU-cache schema, so
#: every pre-existing scenario file parses unchanged.
SCENARIO_KINDS = ("cpu_cache", "object_cache")

_NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")

#: Current scenario format version (bumped on incompatible schema changes).
FORMAT_VERSION = 1


class ScenarioError(ValueError):
    """A scenario failed validation; ``problems`` lists every issue."""

    def __init__(self, problems, source: str = None):
        self.problems = list(problems)
        self.source = source
        where = f"{source}: " if source else ""
        super().__init__(
            where + f"{len(self.problems)} problem(s):\n" +
            "\n".join(f"  - {problem}" for problem in self.problems)
        )


class UnknownScenarioKindError(ScenarioError):
    """A scenario names a ``kind`` this build does not implement.

    Typed (rather than a bare ``KeyError``) so tools like ``repro validate``
    can report the unknown kind with the known alternatives in one line.
    """

    def __init__(self, kind, source: str = None):
        self.kind = kind
        super().__init__(
            [f"kind: unknown scenario kind {kind!r} "
             f"(known: {', '.join(SCENARIO_KINDS)})"],
            source=source,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """The :class:`repro.eval.workloads.EvalConfig` knobs a scenario pins."""

    scale: int = 16
    trace_length: int = 10_000
    seed: int = 7
    llc_ways: int = 16
    num_cores: int = 1
    warmup_fraction: float = 0.2

    def as_dict(self) -> dict:
        return {
            "scale": self.scale,
            "trace_length": self.trace_length,
            "seed": self.seed,
            "llc_ways": self.llc_ways,
            "num_cores": self.num_cores,
            "warmup_fraction": self.warmup_fraction,
        }


@dataclass(frozen=True)
class PhaseClause:
    """One phase of an inline workload: a weighted pattern mix."""

    fraction: float  #: share of the trace length this phase covers
    patterns: tuple  #: PatternSpec tuple


@dataclass(frozen=True)
class WorkloadClause:
    """One workload row: a built-in model reference or an inline mix."""

    name: str
    model: str = None  #: built-in model name (repro.traces.spec_models)
    phases: tuple = ()  #: PhaseClause tuple (inline workloads)
    mean_instr_delta: int = 6
    write_fraction: float = 0.1

    @property
    def inline(self) -> bool:
        return self.model is None


@dataclass(frozen=True)
class MixClause:
    """Multicore mixes: explicit name tuples or randomly drawn ones."""

    explicit: tuple = ()  #: tuple of workload-name tuples
    random_count: int = 0  #: number of random mixes to draw (0 = explicit)


@dataclass(frozen=True)
class Expectation:
    """One expected-invariant assertion checked after a scenario run."""

    check: str  #: one of EXPECTATION_CHECKS
    policy: str = None  #: restrict to this policy (None = all)
    workload: str = None  #: restrict to this workload (None = all)
    min: float = None  #: lower bound (hit_rate / speedup)
    max: float = None  #: upper bound (hit_rate / regret)
    over: str = "lru"  #: speedup baseline policy

    def as_dict(self) -> dict:
        payload = {"check": self.check}
        for key in ("policy", "workload", "min", "max"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.check == "speedup":
            payload["over"] = self.over
        return payload


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario, ready to run."""

    #: Discriminator matching the file-level ``kind`` key (the object
    #: schema's ObjectScenario carries "object_cache").
    scenario_kind = "cpu_cache"

    name: str
    config: ScenarioConfig
    workloads: tuple  #: WorkloadClause tuple
    policies: tuple  #: policy registry names ("belady" allowed)
    title: str = ""
    description: str = ""
    figure: str = ""  #: paper artifact this scenario reproduces ("Figure 10")
    seeds: tuple = ()  #: trace seeds to run (default: (config.seed,))
    mixes: MixClause = None  #: multicore mixes (None = single-core cells)
    sanitize: str = "normal"
    golden: bool = False  #: pin a golden report digest under tests/goldens/
    expect: tuple = ()  #: Expectation tuple
    params: dict = field(default_factory=dict)  #: free-form experiment knobs
    source: str = None  #: file the scenario was loaded from (not hashed)

    @property
    def workload_names(self) -> list:
        return [clause.name for clause in self.workloads]

    @property
    def run_seeds(self) -> tuple:
        return self.seeds or (self.config.seed,)

    @property
    def sweep_policies(self) -> list:
        """Policies for the sweep lineup, minus the offline-optimal one."""
        return [policy for policy in self.policies if policy != "belady"]

    @property
    def include_belady(self) -> bool:
        return "belady" in self.policies

    def eval_config(self, seed: int = None):
        """Instantiate the :class:`EvalConfig` this scenario pins."""
        from repro.eval.workloads import EvalConfig

        return EvalConfig(
            scale=self.config.scale,
            trace_length=self.config.trace_length,
            seed=self.config.seed if seed is None else seed,
            warmup_fraction=self.config.warmup_fraction,
            num_cores=self.config.num_cores,
            llc_ways=self.config.llc_ways,
        )

    def as_dict(self) -> dict:
        """Round-trippable dict form (the on-disk YAML/JSON shape)."""
        payload = {"format": FORMAT_VERSION, "name": self.name}
        for key in ("title", "description", "figure"):
            value = getattr(self, key)
            if value:
                payload[key] = value
        payload["config"] = self.config.as_dict()
        payload["workloads"] = [_workload_to_dict(w) for w in self.workloads]
        payload["policies"] = list(self.policies)
        if self.seeds:
            payload["seeds"] = list(self.seeds)
        if self.mixes is not None:
            if self.mixes.random_count:
                payload["mixes"] = {"random": self.mixes.random_count}
            else:
                payload["mixes"] = [list(mix) for mix in self.mixes.explicit]
        payload["sanitize"] = self.sanitize
        if self.golden:
            payload["golden"] = True
        if self.expect:
            payload["expect"] = [e.as_dict() for e in self.expect]
        if self.params:
            payload["params"] = dict(self.params)
        return payload


def _workload_to_dict(clause: WorkloadClause):
    if not clause.inline:
        return clause.name if clause.name == clause.model else {
            "name": clause.name, "model": clause.model,
        }
    payload = {
        "name": clause.name,
        "mean_instr_delta": clause.mean_instr_delta,
        "write_fraction": clause.write_fraction,
    }
    phases = []
    for phase in clause.phases:
        phases.append({
            "fraction": phase.fraction,
            "patterns": [_pattern_to_dict(p) for p in phase.patterns],
        })
    if len(phases) == 1 and phases[0]["fraction"] == 1.0:
        payload["patterns"] = phases[0]["patterns"]
    else:
        payload["phases"] = phases
    return payload


def _pattern_to_dict(pattern: PatternSpec) -> dict:
    payload = {
        "kind": pattern.kind,
        "weight": pattern.weight,
        "working_set": pattern.working_set,
    }
    if pattern.kind == "stride":
        payload["stride"] = pattern.stride
    if pattern.kind == "zipf":
        payload["alpha"] = pattern.alpha
    if pattern.kind == "scan_hot":
        payload["scan_lines"] = pattern.scan_lines
        payload["hot_fraction"] = pattern.hot_fraction
    if pattern.kind == "multi_stream":
        payload["streams"] = pattern.streams
    return payload


# -- validation ----------------------------------------------------------------


class _Check:
    """Collects locator-prefixed problems while walking a scenario dict."""

    def __init__(self):
        self.problems = []

    def fail(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def number(self, data, path, key, default, lo, hi, kind=(int, float)):
        value = data.get(key, default)
        if isinstance(value, bool) or not isinstance(value, kind):
            self.fail(f"{path}.{key}", f"expected a number, got {value!r}")
            return default
        if not (lo <= value <= hi):
            self.fail(
                f"{path}.{key}",
                f"{value!r} out of range [{lo}, {hi}]",
            )
            return default
        return value

    def integer(self, data, path, key, default, lo, hi):
        return self.number(data, path, key, default, lo, hi, kind=int)


def _known_policies():
    from repro.cache.replacement import POLICY_REGISTRY

    return set(POLICY_REGISTRY) | {"belady"}


def _parse_pattern(data, path, check: _Check) -> PatternSpec:
    if not isinstance(data, dict):
        check.fail(path, f"expected a pattern mapping, got {data!r}")
        return PatternSpec(1.0, "cyclic", 0.5)
    kind = data.get("kind")
    if kind not in PATTERN_KINDS:
        check.fail(
            f"{path}.kind",
            f"unknown pattern kind {kind!r} (known: {', '.join(PATTERN_KINDS)})",
        )
        kind = "cyclic"
    unknown = set(data) - {
        "kind", "weight", "working_set", "stride", "alpha", "scan_lines",
        "hot_fraction", "streams",
    }
    if unknown:
        check.fail(path, f"unknown pattern key(s): {', '.join(sorted(unknown))}")
    return PatternSpec(
        weight=check.number(data, path, "weight", 1.0, 1e-6, 1e6),
        kind=kind,
        working_set=check.number(data, path, "working_set", 0.5, 1e-4, 64.0),
        stride=check.integer(data, path, "stride", 1, 1, 4096),
        alpha=check.number(data, path, "alpha", 1.0, 0.05, 4.0),
        scan_lines=check.number(data, path, "scan_lines", 0.0, 0.0, 64.0),
        hot_fraction=check.number(data, path, "hot_fraction", 0.5, 0.0, 1.0),
        streams=check.integer(data, path, "streams", 8, 1, 64),
    )


def _parse_phases(data, path, check: _Check) -> tuple:
    raw_phases = data.get("phases")
    if raw_phases is None:
        patterns = data.get("patterns")
        if not isinstance(patterns, list) or not patterns:
            check.fail(
                f"{path}.patterns",
                "inline workloads need a non-empty 'patterns' (or 'phases') "
                "list",
            )
            return ()
        return (PhaseClause(1.0, tuple(
            _parse_pattern(p, f"{path}.patterns[{i}]", check)
            for i, p in enumerate(patterns)
        )),)
    if not isinstance(raw_phases, list) or not raw_phases:
        check.fail(f"{path}.phases", "expected a non-empty list of phases")
        return ()
    phases = []
    for index, phase in enumerate(raw_phases):
        phase_path = f"{path}.phases[{index}]"
        if not isinstance(phase, dict):
            check.fail(phase_path, f"expected a phase mapping, got {phase!r}")
            continue
        patterns = phase.get("patterns")
        if not isinstance(patterns, list) or not patterns:
            check.fail(f"{phase_path}.patterns",
                       "expected a non-empty pattern list")
            continue
        phases.append(PhaseClause(
            fraction=check.number(phase, phase_path, "fraction", 1.0, 1e-3, 1.0),
            patterns=tuple(
                _parse_pattern(p, f"{phase_path}.patterns[{i}]", check)
                for i, p in enumerate(patterns)
            ),
        ))
    total = sum(phase.fraction for phase in phases)
    if phases and not 0.5 <= total <= 1.0 + 1e-9:
        check.fail(f"{path}.phases",
                   f"phase fractions sum to {total:.3f}, expected ~1.0")
    return tuple(phases)


def _parse_workload(data, path, check: _Check) -> WorkloadClause:
    if isinstance(data, str):
        if data not in ALL_WORKLOADS:
            known = ", ".join(sorted(ALL_WORKLOADS)[:6])
            check.fail(path, f"unknown workload model {data!r} "
                             f"(known models include: {known}, ...)")
        return WorkloadClause(name=data, model=data)
    if not isinstance(data, dict):
        check.fail(path, f"expected a workload name or mapping, got {data!r}")
        return WorkloadClause(name="invalid", model=None,
                              phases=(PhaseClause(1.0, ()),))
    name = data.get("name")
    if not isinstance(name, str) or not name:
        check.fail(f"{path}.name", "workloads need a non-empty string name")
        name = "unnamed"
    model = data.get("model")
    if model is not None:
        if model not in ALL_WORKLOADS:
            check.fail(f"{path}.model", f"unknown workload model {model!r}")
        extra = set(data) - {"name", "model"}
        if extra:
            check.fail(path, "model-referencing workloads take no other "
                             f"key(s): {', '.join(sorted(extra))}")
        return WorkloadClause(name=name, model=model)
    unknown = set(data) - {
        "name", "patterns", "phases", "mean_instr_delta", "write_fraction",
    }
    if unknown:
        check.fail(path, f"unknown workload key(s): {', '.join(sorted(unknown))}")
    return WorkloadClause(
        name=name,
        model=None,
        phases=_parse_phases(data, path, check),
        mean_instr_delta=check.integer(data, path, "mean_instr_delta", 6, 1, 200),
        write_fraction=check.number(data, path, "write_fraction", 0.1, 0.0, 1.0),
    )


def _parse_config(data, check: _Check) -> ScenarioConfig:
    raw = data.get("config", {})
    if not isinstance(raw, dict):
        check.fail("config", f"expected a mapping, got {raw!r}")
        raw = {}
    unknown = set(raw) - {
        "scale", "trace_length", "seed", "llc_ways", "num_cores",
        "warmup_fraction",
    }
    if unknown:
        check.fail("config", f"unknown key(s): {', '.join(sorted(unknown))}")
    config = ScenarioConfig(
        scale=check.integer(raw, "config", "scale", 16, 1, 2048),
        trace_length=check.integer(raw, "config", "trace_length",
                                   10_000, 64, 50_000_000),
        seed=check.integer(raw, "config", "seed", 7, 0, 2**31 - 1),
        llc_ways=check.integer(raw, "config", "llc_ways", 16, 1, 64),
        num_cores=check.integer(raw, "config", "num_cores", 1, 1, 8),
        warmup_fraction=check.number(raw, "config", "warmup_fraction",
                                     0.2, 0.0, 0.9),
    )
    # The geometry must actually construct: scale/ways combinations that
    # leave a non-power-of-two set count (or zero sets) fail here, not
    # mid-sweep.
    if not check.problems:
        from repro.eval.workloads import EvalConfig

        try:
            EvalConfig(
                scale=config.scale, trace_length=config.trace_length,
                seed=config.seed, num_cores=config.num_cores,
                llc_ways=config.llc_ways,
            ).hierarchy()
        except (ValueError, ZeroDivisionError) as error:
            check.fail("config", f"geometry does not construct: {error}")
    return config


def _parse_mixes(data, config: ScenarioConfig, workload_names, check: _Check):
    raw = data.get("mixes")
    if raw is None:
        return None
    if config.num_cores < 2:
        check.fail("mixes", "mixes need config.num_cores >= 2")
    if isinstance(raw, dict):
        unknown = set(raw) - {"random"}
        if unknown:
            check.fail("mixes", f"unknown key(s): {', '.join(sorted(unknown))}")
        count = check.integer(raw, "mixes", "random", 1, 1, 1000)
        if len(workload_names) < config.num_cores:
            check.fail("mixes", f"need at least {config.num_cores} workloads "
                                f"to draw {config.num_cores}-way mixes")
        return MixClause(random_count=count)
    if not isinstance(raw, list) or not raw:
        check.fail("mixes", f"expected a list of mixes or {{random: N}}, "
                            f"got {raw!r}")
        return None
    explicit = []
    names = set(workload_names)
    for index, mix in enumerate(raw):
        if not isinstance(mix, list) or len(mix) != config.num_cores:
            check.fail(f"mixes[{index}]",
                       f"expected a list of exactly {config.num_cores} "
                       f"workload names, got {mix!r}")
            continue
        for name in mix:
            if name not in names:
                check.fail(f"mixes[{index}]",
                           f"{name!r} is not in this scenario's workloads")
        explicit.append(tuple(mix))
    return MixClause(explicit=tuple(explicit))


def _parse_expectation(data, path, policies, workload_names, check: _Check):
    if not isinstance(data, dict):
        check.fail(path, f"expected an expectation mapping, got {data!r}")
        return Expectation(check="conservation")
    kind = data.get("check")
    if kind not in EXPECTATION_CHECKS:
        check.fail(f"{path}.check",
                   f"unknown check {kind!r} (known: "
                   f"{', '.join(EXPECTATION_CHECKS)})")
        kind = "conservation"
    unknown = set(data) - {"check", "policy", "workload", "min", "max", "over"}
    if unknown:
        check.fail(path, f"unknown key(s): {', '.join(sorted(unknown))}")
    policy = data.get("policy")
    if policy is not None and policy not in policies:
        check.fail(f"{path}.policy",
                   f"{policy!r} is not in this scenario's policies")
    workload = data.get("workload")
    if workload is not None and workload not in workload_names:
        check.fail(f"{path}.workload",
                   f"{workload!r} is not in this scenario's workloads")
    minimum = data.get("min")
    maximum = data.get("max")
    for bound, value in (("min", minimum), ("max", maximum)):
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))):
            check.fail(f"{path}.{bound}", f"expected a number, got {value!r}")
    if kind == "hit_rate" and minimum is None and maximum is None:
        check.fail(path, "hit_rate expectations need 'min' and/or 'max'")
    if kind == "regret" and maximum is None:
        check.fail(path, "regret expectations need a 'max' ceiling")
    if kind == "speedup" and minimum is None:
        check.fail(path, "speedup expectations need a 'min' bound")
    over = data.get("over", "lru")
    if kind == "speedup" and over not in policies:
        check.fail(f"{path}.over",
                   f"baseline {over!r} is not in this scenario's policies")
    if kind == "belady_dominates" and "belady" not in policies:
        check.fail(path, "belady_dominates needs 'belady' in policies")
    return Expectation(
        check=kind, policy=policy, workload=workload,
        min=minimum, max=maximum, over=over,
    )


#: Top-level keys every scenario kind shares (each kind adds its own).
_COMMON_KEYS = {
    "format", "kind", "name", "title", "description", "figure", "config",
    "workloads", "policies", "seeds", "sanitize", "golden", "expect",
    "params",
}


def _parse_common(data, check: _Check, *, extra_keys, parse_config,
                        parse_workloads, known_policies, policy_label,
                        parse_expectation) -> dict:
    """Validate the top level every scenario kind shares.

    Each kind passes in what differs: its extra top-level keys, its config
    parser (``parse_config(data, check)``), its workload-list parser
    (``parse_workloads(data, check)``, which also reports an empty list),
    its known policy names and the noun naming an unknown one, and its
    expectation parser (``parse_expectation(entry, path, policies,
    workload_names, check)``).  Problems land on ``check``; the returned
    fields are the constructor arguments both scenario classes share.
    """
    unknown = set(data) - _COMMON_KEYS - set(extra_keys)
    if unknown:
        check.fail("top level", f"unknown key(s): {', '.join(sorted(unknown))}")
    version = data.get("format", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        check.fail("format", f"unsupported scenario format {version!r} "
                             f"(this build reads format {FORMAT_VERSION})")

    name = data.get("name")
    if not isinstance(name, str) or not _NAME_PATTERN.match(name or ""):
        check.fail("name", f"{name!r} is not a valid scenario name "
                           "(lowercase letters, digits, '.', '_', '-')")
        name = "invalid"

    config = parse_config(data, check)

    workloads = parse_workloads(data, check)
    seen = set()
    for clause in workloads:
        if clause.name in seen:
            check.fail("workloads", f"duplicate workload name {clause.name!r}")
        seen.add(clause.name)

    policies = data.get("policies")
    if not isinstance(policies, list) or not policies:
        check.fail("policies", "expected a non-empty list of policy names")
        policies = ["lru"]
    for index, policy in enumerate(policies):
        if policy not in known_policies:
            check.fail(f"policies[{index}]",
                       f"unknown {policy_label} {policy!r} (known: "
                       f"{', '.join(sorted(known_policies))})")
    if len(set(policies)) != len(policies):
        check.fail("policies", "duplicate policy names")

    seeds = data.get("seeds", [])
    if not isinstance(seeds, list):
        check.fail("seeds", f"expected a list of integers, got {seeds!r}")
        seeds = []
    for index, seed in enumerate(seeds):
        if isinstance(seed, bool) or not isinstance(seed, int) \
                or not 0 <= seed < 2**31:
            check.fail(f"seeds[{index}]",
                       f"expected an integer in [0, 2^31), got {seed!r}")
    if len(seeds) > 16:
        check.fail("seeds", f"{len(seeds)} seeds is above the 16-seed cap")

    sanitize = data.get("sanitize", "normal")
    if sanitize not in SANITIZE_MODES:
        check.fail("sanitize", f"unknown mode {sanitize!r} "
                               f"(known: {', '.join(SANITIZE_MODES)})")
        sanitize = "normal"

    golden = data.get("golden", False)
    if not isinstance(golden, bool):
        check.fail("golden", f"expected true/false, got {golden!r}")
        golden = False

    workload_names = [clause.name for clause in workloads]
    raw_expect = data.get("expect", [])
    if not isinstance(raw_expect, list):
        check.fail("expect", f"expected a list, got {raw_expect!r}")
        raw_expect = []
    expect = tuple(
        parse_expectation(entry, f"expect[{index}]", policies,
                          workload_names, check)
        for index, entry in enumerate(raw_expect)
    )

    params = data.get("params", {})
    if not isinstance(params, dict):
        check.fail("params", f"expected a mapping, got {params!r}")
        params = {}

    for key in ("title", "description", "figure"):
        value = data.get(key, "")
        if not isinstance(value, str):
            check.fail(key, f"expected a string, got {value!r}")

    return {
        "name": name,
        "title": str(data.get("title", "")),
        "description": str(data.get("description", "")),
        "figure": str(data.get("figure", "")),
        "config": config,
        "workloads": tuple(workloads),
        "policies": tuple(policies),
        "seeds": tuple(seeds),
        "sanitize": sanitize,
        "golden": golden,
        "expect": expect,
        "params": dict(params),
    }


def _parse_workloads(data, check: _Check) -> list:
    """The CPU workload list: a ``suite`` expansion plus ``workloads``."""
    workloads = []
    raw_workloads = data.get("workloads", [])
    if not isinstance(raw_workloads, list):
        check.fail("workloads", f"expected a list, got {raw_workloads!r}")
        raw_workloads = []
    suite = data.get("suite")
    if suite is not None:
        from repro.eval.workloads import suite_names

        try:
            for member in suite_names(suite):
                workloads.append(WorkloadClause(name=member, model=member))
        except ValueError as error:
            check.fail("suite", str(error))
    for index, entry in enumerate(raw_workloads):
        workloads.append(_parse_workload(entry, f"workloads[{index}]", check))
    if not workloads:
        check.fail("workloads", "scenario has no workloads (give 'workloads' "
                                "and/or 'suite')")
    return workloads


def scenario_from_dict(data, source: str = None):
    """Validate a parsed scenario dict; raise :class:`ScenarioError` on any
    problem, else return the immutable scenario object.

    Dispatches on the top-level ``kind`` key: absent or ``cpu_cache`` is the
    schema in this module; ``object_cache`` routes to
    :func:`repro.scenarios.object_schema.object_scenario_from_dict`; anything
    else raises :class:`UnknownScenarioKindError`.
    """
    check = _Check()
    if not isinstance(data, dict):
        raise ScenarioError(
            [f"top level: expected a mapping, got {type(data).__name__}"],
            source=source,
        )
    kind = data.get("kind", "cpu_cache")
    if kind == "object_cache":
        from repro.scenarios.object_schema import object_scenario_from_dict

        return object_scenario_from_dict(data, source=source)
    if kind != "cpu_cache":
        raise UnknownScenarioKindError(kind, source=source)
    fields = _parse_common(
        data, check,
        extra_keys={"suite", "mixes"},
        parse_config=_parse_config,
        parse_workloads=_parse_workloads,
        known_policies=_known_policies(),
        policy_label="policy",
        parse_expectation=_parse_expectation,
    )
    config = fields["config"]
    workload_names = [clause.name for clause in fields["workloads"]]
    mixes = _parse_mixes(data, config, workload_names, check)
    if mixes is None and config.num_cores > 1:
        check.fail("config.num_cores", "multicore scenarios need 'mixes'")

    if check.problems:
        raise ScenarioError(check.problems, source=source)
    return Scenario(mixes=mixes, source=source, **fields)
