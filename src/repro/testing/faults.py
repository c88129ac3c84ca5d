"""Deterministic fault injection for the reliability test suite.

The recovery paths of the run supervisor — watchdog reaping, crash retries,
journal resume, corrupt-cache fallback — only matter when things go wrong,
so this harness makes things go wrong *on demand and deterministically*:

* a :class:`FaultSpec` names an instrumented **site** (``"replay"``,
  ``"prepare"``, ``"prep-cache"``, ``"atomic-write"``, ...), an optional
  identity **match** (e.g. ``{"workload": "429.mcf", "policy": "lru"}``),
  an **action**, and a trigger window (fire on matching calls
  ``after < n <= after + times``);
* specs travel to worker processes through two environment variables
  (``REPRO_FAULTS`` = JSON spec list, ``REPRO_FAULTS_STATE`` = a state
  directory), so forked and spawned workers inject identically;
* the per-spec call counter lives in the state directory as a series of
  ``O_EXCL``-created marker files, giving an atomic cross-process count —
  "crash on the 2nd access" means the 2nd access *globally*, not per
  worker.

Actions:

``crash``
    ``os._exit(exit_code)`` — the process dies without reporting, exactly
    like a SIGKILL'd or segfaulted worker.
``hang``
    Sleep for ``hang_seconds`` — exercises the watchdog.
``error``
    Raise :class:`InjectedFault` — a deterministic in-task exception.
``corrupt``
    Truncate the file passed as the ``path`` identity to half its size —
    simulates a torn cache entry just before it is read.
``poison``
    Does nothing by itself; :func:`poisoned` returns True at matching call
    sites, letting instrumented code corrupt its *own* state in a
    domain-appropriate way (e.g. the trainer NaN-ing its network to
    exercise the divergence guard).
``torn_write:<nbytes>``
    Interpreted by the atomic-write path (:func:`repro.runs.atomic.
    atomic_write`, site ``"atomic-write"``): simulate a filesystem that
    lost rename atomicity — only the first ``nbytes`` of the new content
    land in the target file, *silently* (the writer believes the write
    succeeded).  This is the corruption ``repro fsck`` must catch.
``bit_flip:<offset>``
    Also interpreted by the atomic-write path: the write completes
    normally, then one bit of the final file is flipped at ``offset``
    (taken modulo the file size) — deterministic bit rot.
``crash_at_byte:<nbytes>``
    Interpreted by the atomic-write path: the process "dies" after
    ``nbytes`` of the temporary file are written and fsynced — before the
    rename when ``nbytes`` is short of the content, after it otherwise.
    Raises :class:`SimulatedCrash` (a ``BaseException``, so production
    ``except Exception`` recovery cannot swallow it) instead of
    ``os._exit`` so crash-at-every-byte-offset property tests can run
    thousands of in-process "crashes"; the temp-file debris a real crash
    would leave is left behind too.

Instrumented production code calls :func:`maybe_fault` with its site and
identity; the call is a single dict lookup when no faults are installed.
:func:`maybe_fault` returns the action string that fired (or ``None``), so
the atomic-write path can interpret the byte-fault actions itself.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ENV_SPECS = "REPRO_FAULTS"
ENV_STATE = "REPRO_FAULTS_STATE"

#: Fixed action kinds; the byte-fault actions carry a byte count/offset
#: suffix (``torn_write:<n>`` / ``bit_flip:<n>`` / ``crash_at_byte:<n>``),
#: validated by :func:`parse_action`.
_ACTIONS = ("crash", "hang", "error", "corrupt", "poison")

#: Actions interpreted by the atomic-write path (suffix = a byte value).
BYTE_FAULT_ACTIONS = ("torn_write", "bit_flip", "crash_at_byte")


class InjectedFault(RuntimeError):
    """The deterministic exception raised by the ``error`` action."""


class SimulatedCrash(BaseException):
    """An in-process stand-in for process death (``crash_at_byte``).

    Derives from ``BaseException`` so the generic ``except Exception``
    recovery in production code cannot observe it — exactly like a real
    SIGKILL.  Only the test harness (which installed the fault) catches
    it.
    """


def parse_action(action: str):
    """Split an action string into ``(kind, value)``.

    ``"torn_write:7"`` -> ``("torn_write", 7)`` (likewise
    ``bit_flip``/``crash_at_byte``); every other action has no value
    (``("hang", None)``).  Raises :class:`ValueError` on unknown kinds or
    malformed suffixes, so specs fail loudly at install / decode time
    rather than silently never firing.
    """
    kind, _, suffix = str(action).partition(":")
    if kind in BYTE_FAULT_ACTIONS:
        if not suffix:
            raise ValueError(
                f"action {action!r} needs a byte value: use '{kind}:<n>'"
            )
        try:
            value = int(suffix)
        except ValueError:
            raise ValueError(
                f"action {action!r} has a non-integer byte value {suffix!r}"
            ) from None
        if value < 0:
            raise ValueError(f"action {action!r} has a negative byte value")
        return kind, value
    if kind not in _ACTIONS:
        raise ValueError(f"unknown fault action {action!r}")
    if suffix:
        raise ValueError(
            f"action {action!r}: only the byte-fault actions "
            f"{BYTE_FAULT_ACTIONS} take a ':<n>' suffix"
        )
    return kind, None


@dataclass
class FaultSpec:
    """One injected fault: where, what, and when."""

    site: str  #: instrumented call site ("replay", "atomic-write", ...)
    action: str  #: one of the actions above (e.g. "torn_write:<n>")
    match: dict = field(default_factory=dict)  #: identity keys that must match
    after: int = 0  #: skip the first ``after`` matching calls
    times: int = 1  #: fire on this many calls, then stand down
    hang_seconds: float = 3600.0
    exit_code: int = 87

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "action": self.action,
            "match": dict(self.match),
            "after": self.after,
            "times": self.times,
            "hang_seconds": self.hang_seconds,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        spec = cls(
            site=str(data["site"]),
            action=str(data["action"]),
            match=dict(data.get("match", {})),
            after=int(data.get("after", 0)),
            times=int(data.get("times", 1)),
            hang_seconds=float(data.get("hang_seconds", 3600.0)),
            exit_code=int(data.get("exit_code", 87)),
        )
        parse_action(spec.action)  # raises on unknown/malformed actions
        return spec


def install_faults(specs, state_dir) -> None:
    """Activate ``specs`` process-wide (inherited by worker processes)."""
    specs = [spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
             for spec in specs]
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    os.environ[ENV_SPECS] = json.dumps([spec.to_dict() for spec in specs])
    os.environ[ENV_STATE] = str(state)


def clear_faults() -> None:
    """Deactivate fault injection in this process (and future children)."""
    os.environ.pop(ENV_SPECS, None)
    os.environ.pop(ENV_STATE, None)


@contextmanager
def injected_faults(specs, state_dir):
    """Scoped :func:`install_faults` that restores the previous state."""
    previous = {key: os.environ.get(key) for key in (ENV_SPECS, ENV_STATE)}
    install_faults(specs, state_dir)
    try:
        yield
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _count_call(state_dir: str, spec_index: int) -> int:
    """Atomically allocate this call's 1-based global sequence number."""
    os.makedirs(state_dir, exist_ok=True)  # env may be set without install
    for number in range(1, 1_000_000):
        marker = os.path.join(state_dir, f"spec{spec_index:03d}.{number:06d}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return number
    raise RuntimeError("fault counter exhausted")


def _matches(spec: FaultSpec, identity: dict) -> bool:
    return all(identity.get(key) == value for key, value in spec.match.items())


def _armed_spec(site: str, identity: dict, poison: bool):
    """The first installed spec firing at this call site, or None.

    Counting happens here (through the atomic marker files), so simply
    *asking* advances each matching spec's trigger window — exactly one
    global caller sees each firing.
    """
    raw = os.environ.get(ENV_SPECS)
    if not raw:
        return None
    state_dir = os.environ.get(ENV_STATE)
    if not state_dir:
        return None
    try:
        specs = [FaultSpec.from_dict(data) for data in json.loads(raw)]
    except (ValueError, KeyError):
        return None  # malformed spec: never take down production code
    for index, spec in enumerate(specs):
        if spec.site != site or (spec.action == "poison") != poison:
            continue
        if not _matches(spec, identity):
            continue
        number = _count_call(state_dir, index)
        if spec.after < number <= spec.after + spec.times:
            return spec
    return None


def _fire(spec: FaultSpec, identity: dict) -> None:
    """Perform the side effect of a fired spec."""
    kind, _ = parse_action(spec.action)
    if kind in BYTE_FAULT_ACTIONS:
        # No side effect here: the instrumented atomic-write path owns the
        # bytes and interprets the returned action itself.
        return
    if kind == "crash":
        os._exit(spec.exit_code)
    if kind == "hang":
        time.sleep(spec.hang_seconds)
        return
    if kind == "corrupt":
        path = identity.get("path")
        if path and os.path.isfile(path):
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(size // 2)
        return
    raise InjectedFault(
        f"injected fault at site {spec.site!r} ({identity})"
    )


def maybe_fault(site: str, **identity):
    """Fire any installed fault matching this call site and identity.

    Called from instrumented production code; a no-op (one environment
    lookup) unless :func:`install_faults` is active.  Returns the action
    string that fired (``None`` when nothing fired) so the atomic-write
    path can interpret a byte-fault action.
    """
    spec = _armed_spec(site, identity, poison=False)
    if spec is None:
        return None
    _fire(spec, identity)
    return spec.action


def poisoned(site: str, **identity) -> bool:
    """True when a matching ``poison`` spec fires at this call site.

    The caller corrupts its own state (see
    :func:`repro.sanitize.divergence.poison_agent`); the harness only
    answers *whether* — keeping :mod:`repro.testing.faults` free of any
    domain knowledge.  Counted through the same atomic cross-process
    counter as the other actions.
    """
    return _armed_spec(site, identity, poison=True) is not None
