"""The ``object_cache`` scenario kind: schema + whole-file validation.

Scenario files grow a top-level ``kind`` discriminator (absent = the
original ``cpu_cache`` kind, so every pre-existing scenario file and golden
stays byte-identical).  ``kind: object_cache`` documents switch to this
schema: bytes-capacity config, object workload generator clauses
(:mod:`repro.objcache.workloads`), object policy names, an optional
admission clause, and object-metric expectations (byte/object hit-rate
bounds, policy-beats-policy claims, size-aware-Belady regret ceilings).

Validation follows the house rule: every problem in the file is collected
and reported at once with ``path.to.the[2].field`` locators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scenarios.schema import (
    FORMAT_VERSION,
    ScenarioError,
    _Check,
    _parse_common,
)

#: Expectation checks the object kind understands.
OBJECT_EXPECTATION_CHECKS = (
    "conservation", "byte_hit_rate", "object_hit_rate", "beats", "regret",
)

#: Metrics a ``beats`` expectation may compare.
BEATS_METRICS = ("byte_hit_rate", "object_hit_rate")

_WORKLOAD_PARAM_KEYS = {
    "zipf": set(),
    "hotspot_shift": {"phases"},
    "flash_crowd": {"burst_start", "burst_length", "burst_fraction",
                    "crowd_objects"},
    "scan_mix": {"scan_fraction", "scan_size_scale"},
}

_ADMISSION_PARAM_KEYS = {
    "always": set(),
    "freq_gate": {"width", "depth", "threshold", "reset_interval"},
}


@dataclass(frozen=True)
class ObjectScenarioConfig:
    """The object-cache knobs a scenario pins."""

    capacity_bytes: int = 1 << 22
    requests: int = 10_000
    seed: int = 7

    def as_dict(self) -> dict:
        return {
            "capacity_bytes": self.capacity_bytes,
            "requests": self.requests,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ObjectWorkloadClause:
    """One generator clause: a named request-stream recipe."""

    name: str
    kind: str
    objects: int
    length: int = None  #: None = config.requests
    alpha: float = 1.0
    sizes: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)  #: kind-specific knobs

    def as_dict(self) -> dict:
        payload = {"name": self.name, "kind": self.kind,
                   "objects": self.objects}
        if self.length is not None:
            payload["length"] = self.length
        payload["alpha"] = self.alpha
        if self.sizes:
            payload["sizes"] = dict(self.sizes)
        payload.update(self.params)
        return payload


@dataclass(frozen=True)
class ObjectExpectation:
    """One object-metric assertion checked after a scenario run."""

    check: str
    policy: str = None
    workload: str = None
    min: float = None
    max: float = None
    over: str = None  #: the baseline a ``beats`` claim compares against
    metric: str = "byte_hit_rate"

    def as_dict(self) -> dict:
        payload = {"check": self.check}
        for key in ("policy", "workload", "min", "max", "over"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.check == "beats":
            payload["metric"] = self.metric
        return payload


@dataclass(frozen=True)
class ObjectScenario:
    """A fully validated ``object_cache`` scenario, ready to run."""

    name: str
    config: ObjectScenarioConfig
    workloads: tuple  #: ObjectWorkloadClause tuple
    policies: tuple  #: object-policy registry names
    title: str = ""
    description: str = ""
    figure: str = ""
    admission: dict = None  #: {"kind": name, **params} (None = always)
    seeds: tuple = ()
    sanitize: str = "normal"
    golden: bool = False
    expect: tuple = ()  #: ObjectExpectation tuple
    params: dict = field(default_factory=dict)  #: policy -> kwargs overrides
    source: str = None

    #: Discriminator the runner/CLI dispatch on (CPU scenarios carry
    #: "cpu_cache" via the Scenario class attribute).
    scenario_kind = "object_cache"

    @property
    def workload_names(self) -> list:
        return [clause.name for clause in self.workloads]

    @property
    def run_seeds(self) -> tuple:
        return self.seeds or (self.config.seed,)

    @property
    def sweep_policies(self) -> list:
        return list(self.policies)

    def as_dict(self) -> dict:
        payload = {
            "format": FORMAT_VERSION,
            "kind": "object_cache",
            "name": self.name,
        }
        for key in ("title", "description", "figure"):
            value = getattr(self, key)
            if value:
                payload[key] = value
        payload["config"] = self.config.as_dict()
        payload["workloads"] = [w.as_dict() for w in self.workloads]
        payload["policies"] = list(self.policies)
        if self.admission is not None:
            payload["admission"] = dict(self.admission)
        if self.seeds:
            payload["seeds"] = list(self.seeds)
        payload["sanitize"] = self.sanitize
        if self.golden:
            payload["golden"] = True
        if self.expect:
            payload["expect"] = [e.as_dict() for e in self.expect]
        if self.params:
            payload["params"] = {
                policy: dict(overrides)
                for policy, overrides in self.params.items()
            }
        return payload


# -- validation ----------------------------------------------------------------


def _parse_config(data, check: _Check) -> ObjectScenarioConfig:
    raw = data.get("config", {})
    if not isinstance(raw, dict):
        check.fail("config", f"expected a mapping, got {raw!r}")
        raw = {}
    unknown = set(raw) - {"capacity_bytes", "requests", "seed"}
    if unknown:
        check.fail("config", f"unknown key(s): {', '.join(sorted(unknown))}")
    return ObjectScenarioConfig(
        capacity_bytes=check.integer(raw, "config", "capacity_bytes",
                                     1 << 22, 1, 1 << 50),
        requests=check.integer(raw, "config", "requests",
                               10_000, 64, 5_000_000),
        seed=check.integer(raw, "config", "seed", 7, 0, 2**31 - 1),
    )


def _parse_workload(data, path, check: _Check) -> ObjectWorkloadClause:
    from repro.objcache.workloads import WORKLOAD_KINDS, validate_size_spec

    if not isinstance(data, dict):
        check.fail(path, f"expected a workload mapping, got {data!r}")
        return ObjectWorkloadClause(name="invalid", kind="zipf", objects=1)
    name = data.get("name")
    if not isinstance(name, str) or not name:
        check.fail(f"{path}.name", "workloads need a non-empty string name")
        name = "unnamed"
    kind = data.get("kind")
    if kind not in WORKLOAD_KINDS:
        check.fail(
            f"{path}.kind",
            f"unknown workload kind {kind!r} "
            f"(known: {', '.join(WORKLOAD_KINDS)})",
        )
        kind = "zipf"
    allowed = {"name", "kind", "objects", "length", "alpha", "sizes"}
    allowed |= _WORKLOAD_PARAM_KEYS.get(kind, set())
    unknown = set(data) - allowed
    if unknown:
        check.fail(path, f"unknown workload key(s) for kind {kind!r}: "
                         f"{', '.join(sorted(unknown))}")
    objects = check.integer(data, path, "objects", 1000, 1, 10_000_000)
    length = None  # None = config.requests
    if "length" in data:
        length = check.integer(data, path, "length", None, 1, 5_000_000)
    alpha = check.number(data, path, "alpha", 1.0, 0.05, 4.0)
    sizes = data.get("sizes", {})
    for problem in validate_size_spec(sizes):
        check.fail(path, problem)
    if not isinstance(sizes, dict):
        sizes = {}
    params = {}
    for key in _WORKLOAD_PARAM_KEYS.get(kind, set()):
        if key in data:
            if key in ("phases", "crowd_objects"):
                params[key] = check.integer(data, path, key, 1, 1, 1_000_000)
            else:
                params[key] = check.number(data, path, key, 0.5, 0.0, 64.0)
    return ObjectWorkloadClause(
        name=name, kind=kind, objects=objects, length=length,
        alpha=alpha, sizes=dict(sizes), params=params,
    )


def _parse_admission(data, check: _Check):
    from repro.objcache.admission import OBJECT_ADMISSION_REGISTRY

    raw = data.get("admission")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        check.fail("admission", f"expected a mapping, got {raw!r}")
        return None
    kind = raw.get("kind")
    if kind not in OBJECT_ADMISSION_REGISTRY:
        check.fail(
            "admission.kind",
            f"unknown admission hook {kind!r} "
            f"(known: {', '.join(sorted(OBJECT_ADMISSION_REGISTRY))})",
        )
        return None
    unknown = set(raw) - {"kind"} - _ADMISSION_PARAM_KEYS.get(kind, set())
    if unknown:
        check.fail("admission", f"unknown key(s) for {kind!r}: "
                                f"{', '.join(sorted(unknown))}")
    for key in _ADMISSION_PARAM_KEYS.get(kind, set()):
        if key in raw:
            check.integer(raw, "admission", key, 1, 1, 1 << 50)
    return dict(raw)


def _parse_expectation(data, path, policies, workload_names, check: _Check):
    if not isinstance(data, dict):
        check.fail(path, f"expected an expectation mapping, got {data!r}")
        return ObjectExpectation(check="conservation")
    kind = data.get("check")
    if kind not in OBJECT_EXPECTATION_CHECKS:
        check.fail(f"{path}.check",
                   f"unknown check {kind!r} (known: "
                   f"{', '.join(OBJECT_EXPECTATION_CHECKS)})")
        kind = "conservation"
    unknown = set(data) - {"check", "policy", "workload", "min", "max",
                           "over", "metric"}
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
    if kind in ("byte_hit_rate", "object_hit_rate") \
            and minimum is None and maximum is None:
        check.fail(path, f"{kind} expectations need 'min' and/or 'max'")
    if kind == "regret" and maximum is None:
        check.fail(path, "regret expectations need a 'max' ceiling")
    over = data.get("over")
    metric = data.get("metric", "byte_hit_rate")
    if kind == "beats":
        if policy is None:
            check.fail(path, "beats expectations need a 'policy'")
        if over is None:
            check.fail(path, "beats expectations need an 'over' baseline")
        elif over not in policies:
            check.fail(f"{path}.over",
                       f"baseline {over!r} is not in this scenario's "
                       "policies")
        if policy is not None and over is not None and policy == over:
            check.fail(path, "beats expectations need policy != over")
        if metric not in BEATS_METRICS:
            check.fail(f"{path}.metric",
                       f"unknown metric {metric!r} (known: "
                       f"{', '.join(BEATS_METRICS)})")
            metric = "byte_hit_rate"
    return ObjectExpectation(
        check=kind, policy=policy, workload=workload,
        min=minimum, max=maximum, over=over, metric=metric,
    )


def _parse_workloads(data, check: _Check) -> list:
    raw_workloads = data.get("workloads", [])
    if not isinstance(raw_workloads, list):
        check.fail("workloads", f"expected a list, got {raw_workloads!r}")
        raw_workloads = []
    workloads = [
        _parse_workload(entry, f"workloads[{index}]", check)
        for index, entry in enumerate(raw_workloads)
    ]
    if not workloads:
        check.fail("workloads", "scenario has no workloads")
    return workloads


def object_scenario_from_dict(data, source: str = None) -> ObjectScenario:
    """Validate a parsed ``kind: object_cache`` dict (all problems at once)."""
    from repro.objcache.policies import OBJECT_POLICY_REGISTRY

    check = _Check()
    fields = _parse_common(
        data, check,
        extra_keys={"admission"},
        parse_config=_parse_config,
        parse_workloads=_parse_workloads,
        known_policies=set(OBJECT_POLICY_REGISTRY),
        policy_label="object policy",
        parse_expectation=_parse_expectation,
    )
    admission = _parse_admission(data, check)
    params = fields["params"]
    for policy, overrides in params.items():
        if policy not in fields["policies"]:
            check.fail(f"params.{policy}",
                       "overrides name a policy that is not in this "
                       "scenario's policies")
        if not isinstance(overrides, dict):
            check.fail(f"params.{policy}",
                       f"expected a mapping, got {overrides!r}")

    if check.problems:
        raise ScenarioError(check.problems, source=source)
    fields["params"] = {policy: dict(overrides)
                        for policy, overrides in params.items()}
    return ObjectScenario(admission=admission, source=source, **fields)
