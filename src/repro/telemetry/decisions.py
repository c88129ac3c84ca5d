"""Per-eviction decision tracing: sampled event logs + Belady regret.

The paper's method is built on *inspecting individual eviction decisions*:
grading each victim choice against Belady's OPT (the §III-A reward) and
profiling victim age / hits-since-insertion / recency (Figures 5-7).  This
module records that decision stream once, during an ordinary replay, so
every downstream consumer — ``repro inspect``, the Figure 5-7 collectors,
the agreement profiler — reads the same events instead of re-instrumenting
its own replay.

Design rules (mirroring the telemetry disabled path in :mod:`repro.telemetry`):

* **Identity when disabled.**  A replay without a :class:`DecisionTrace`
  executes the exact hot-loop code it always did; the only residue is the
  cache's empty ``decision_observers`` list (one no-op ``for`` per
  eviction).
* **Deterministic.**  Events are a pure function of the (deterministic)
  replay; sampling is counter-based (every ``sample_rate``-th eviction),
  never randomized; every recorded quantity is an integer.  Logs written
  from cells merged in ``(workload, policy)`` order are byte-identical for
  ``--jobs 1`` and ``--jobs N``.
* **Bounded.**  Events land in a ring (:attr:`DecisionTrace.dropped`
  counts overflow); the aggregates (grade counts, per-set eviction counts,
  epoch regret buckets, top-N worst decisions) always cover *every*
  eviction regardless of sampling or ring capacity.

Grading follows :func:`repro.rl.reward.belady_reward`: +1 when the victim
has the farthest next use in its set, -1 when the victim would be reused
sooner than the inserted line, 0 otherwise.  Regret is ``(1 - grade) / 2``
(0 for optimal, 1/2 for neutral, 1 for harmful); to stay in integers the
trace accumulates ``regret_x2 = neutral + 2 * harmful``.

Log format (``decisions.jsonl``, written to the run directory by
``--decisions``): a file header line, then per cell one ``{"type": "cell",
...}`` line (summary and the other aggregates, with the number of event and
violation lines that follow), then its event lines.  One codec serves both
cache kinds; the header's ``format`` names the kind — :data:`FORMAT_NAME`
for CPU logs, :data:`OBJECT_FORMAT_NAME` for object-cache logs, whose cells
(:class:`repro.telemetry.object_decisions.ObjectDecisionTrace`) carry
``size_buckets`` and untyped event lines.

This module deliberately imports neither :mod:`repro.rl` nor
:mod:`repro.cache` (both sit *above* telemetry in the import graph); the
oracle, :class:`~repro.traces.oracle.NextUseOracle`, sits below all three.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import NamedTuple, Optional

from repro.runs.atomic import atomic_write_text
from repro.traces.oracle import NEVER
from repro.traces.record import AccessType

#: Decision-log format version (bumped on any layout change).
FORMAT_VERSION = 1

#: Header format names: one per cache kind, one codec for both.
FORMAT_NAME = "repro-decisions"
OBJECT_FORMAT_NAME = "repro-object-decisions"

#: Grade values (match repro.rl.reward's +1/0/-1 as integers).
OPTIMAL, NEUTRAL, HARMFUL = 1, 0, -1
#: Grade byte for events recorded without an oracle.
UNGRADED = 127

#: Event kinds.
KIND_EVICT = 0
KIND_VIOLATION = 1

#: ``way`` / victim-feature sentinel for violation events (no victim).
NO_WAY = 0xFFFF

#: Number of equal-width stream epochs regret is bucketed into.
DECISION_EPOCHS = 8

#: Default event-ring capacity (aggregates are unaffected by overflow).
DEFAULT_RING_CAPACITY = 65536

#: Default size of the worst-decisions table.
DEFAULT_WORST_N = 16

#: Cap on retained violation events (normal-mode sanitizer degrades after
#: the first violation, so this is a defensive bound, not a budget).
MAX_VIOLATIONS = 256

class DecisionEvent(NamedTuple):
    """One logged eviction (or contract-violation) decision.

    All fields are integers so JSON round-trips are exact.  ``grade`` is :data:`UNGRADED` when no oracle
    was attached; access types are :class:`repro.traces.record.AccessType`
    values.
    """

    index: int          #: position in the LLC access stream
    set_index: int      #: cache set of the eviction
    way: int            #: victim way (NO_WAY for violation events)
    kind: int           #: KIND_EVICT or KIND_VIOLATION
    grade: int          #: +1 / 0 / -1 / UNGRADED
    victim_line: int    #: evicted line address
    victim_age_insert: int   #: set accesses since the victim was inserted
    victim_age_last: int     #: set accesses since the victim was last hit
    victim_hits: int         #: hits since insertion
    victim_last_type: int    #: AccessType of the victim's last access
    victim_recency: int      #: victim's LRU-stack position (0 = LRU)
    pc: int             #: program counter of the inserted (missing) access
    address: int        #: byte address of the inserted access
    access_type: int    #: AccessType of the inserted access


def _clamp(value: int, limit: int) -> int:
    value = int(value)
    return 0 if value < 0 else (limit if value > limit else value)


def event_to_json(event: DecisionEvent) -> dict:
    """The JSONL encoding of one event (access types as short names)."""
    payload = {
        "type": "violation" if event.kind == KIND_VIOLATION else "event",
        "index": event.index,
        "set": event.set_index,
        "access_type": AccessType(event.access_type).short_name,
        "pc": event.pc,
        "address": event.address,
    }
    if event.kind == KIND_EVICT:
        payload.update(
            way=event.way,
            victim_line=event.victim_line,
            victim_age_insert=event.victim_age_insert,
            victim_age_last=event.victim_age_last,
            victim_hits=event.victim_hits,
            victim_last_type=AccessType(event.victim_last_type).short_name,
            victim_recency=event.victim_recency,
        )
        if event.grade != UNGRADED:
            payload["grade"] = event.grade
    return payload


_SHORT_NAMES = {access_type.short_name: access_type for access_type in AccessType}


def event_from_json(payload: dict) -> DecisionEvent:
    """Inverse of :func:`event_to_json`."""
    violation = payload.get("type") == "violation"
    return DecisionEvent(
        index=int(payload["index"]),
        set_index=int(payload["set"]),
        way=NO_WAY if violation else int(payload["way"]),
        kind=KIND_VIOLATION if violation else KIND_EVICT,
        grade=int(payload.get("grade", UNGRADED)),
        victim_line=int(payload.get("victim_line", 0)),
        victim_age_insert=int(payload.get("victim_age_insert", 0)),
        victim_age_last=int(payload.get("victim_age_last", 0)),
        victim_hits=int(payload.get("victim_hits", 0)),
        victim_last_type=int(
            _SHORT_NAMES[payload["victim_last_type"]]
        ) if "victim_last_type" in payload else int(AccessType.LOAD),
        victim_recency=int(payload.get("victim_recency", 0)),
        pc=int(payload["pc"]),
        address=int(payload["address"]),
        access_type=int(_SHORT_NAMES[payload["access_type"]]),
    )


# -- the recorder --------------------------------------------------------------


class DecisionTrace:
    """Sampled, ring-buffered per-eviction recorder for one replay cell.

    Attach to a cache via :meth:`repro.cache.cache.Cache.add_decision_observer`
    (``on_decision``) and ``add_access_observer`` (``on_access``) — or let
    :func:`repro.eval.runner.replay` do both via its ``decisions=``
    argument, which also routes sanitizer contract violations here while
    the replay runs.

    Args:
        workload: Label for the log (trace name).
        policy: Label for the log (policy name; filled in by ``replay``
            when left empty).
        sample_rate: Record every N-th eviction into the event ring
            (aggregates always cover all evictions).  Counter-based, so
            the same replay always samples the same events.
        capacity: Event-ring size (``None`` = unbounded; analysis paths
            that need every event pass ``None``).
        oracle: Optional :class:`~repro.traces.oracle.NextUseOracle` over
            the LLC line-address stream, enabling grading.
        total: LLC stream length (set by :meth:`begin`); needed for epoch
            bucketing and for bounding never-reused severities.
        epochs: Number of equal-width regret epochs.
        worst_n: Size of the worst-decisions table.
    """

    def __init__(
        self,
        workload: str = "",
        policy: str = "",
        *,
        sample_rate: int = 1,
        capacity: Optional[int] = DEFAULT_RING_CAPACITY,
        oracle=None,
        total: int = 0,
        epochs: int = DECISION_EPOCHS,
        worst_n: int = DEFAULT_WORST_N,
    ) -> None:
        if sample_rate < 1:
            raise ValueError(f"sample_rate must be >= 1, got {sample_rate}")
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.workload = workload
        self.policy = policy
        self.sample_rate = sample_rate
        self.capacity = capacity
        self.oracle = oracle
        self.total = total
        self.epochs = max(1, epochs)
        self.worst_n = max(0, worst_n)

        self.index = 0          #: accesses fully processed so far
        self.evictions = 0      #: all evictions seen (sampled or not)
        self.sampled = 0        #: events pushed into the ring
        self.dropped = 0        #: ring overflow (oldest events discarded)
        self.optimal = 0
        self.neutral = 0
        self.harmful = 0
        self.violation_overflow = 0
        self._ring = deque(maxlen=capacity)
        self._violations = []   #: (DecisionEvent, detail) pairs
        self._worst = []        #: (severity, index, DecisionEvent), harmful only
        self.set_evictions = {}  #: set index -> eviction count (all evictions)
        self.epoch_decisions = [0] * self.epochs
        self.epoch_neutral = [0] * self.epochs
        self.epoch_harmful = [0] * self.epochs

    # -- lifecycle ---------------------------------------------------------

    def begin(self, total: int, policy_name: str = "") -> None:
        """Called by ``replay`` before the loop: stream length + label."""
        self.total = total
        if policy_name and not self.policy:
            self.policy = policy_name

    # -- observers (hot path while tracing) --------------------------------

    def on_access(self, access, hit) -> None:
        """Access observer: keeps the stream index (and oracle) aligned."""
        if self.oracle is not None:
            self.oracle.advance(access.line_address)
        self.index += 1

    def on_decision(self, cache_set, way: int, line, access) -> None:
        """Decision observer: fires once per eviction, before the fill."""
        self.evictions += 1
        set_index = cache_set.index
        self.set_evictions[set_index] = self.set_evictions.get(set_index, 0) + 1

        grade, severity = UNGRADED, 0
        if self.oracle is not None:
            grade, severity = self._grade(cache_set, way, access)
            if grade == OPTIMAL:
                self.optimal += 1
            elif grade == HARMFUL:
                self.harmful += 1
            else:
                self.neutral += 1
            epoch = self._epoch(self.index)
            self.epoch_decisions[epoch] += 1
            if grade == HARMFUL:
                self.epoch_harmful[epoch] += 1
            elif grade == NEUTRAL:
                self.epoch_neutral[epoch] += 1

        sampled = (self.evictions - 1) % self.sample_rate == 0
        if not sampled and grade != HARMFUL:
            return  # nothing left to record for this eviction

        event = DecisionEvent(
            index=self.index,
            set_index=set_index,
            way=way,
            kind=KIND_EVICT,
            grade=grade,
            victim_line=line.line_address,
            victim_age_insert=_clamp(cache_set.age_since_insertion(way),
                                     0xFFFFFFFF),
            victim_age_last=_clamp(cache_set.age_since_last_access(way),
                                   0xFFFFFFFF),
            victim_hits=_clamp(line.hits_since_insertion, 0xFFFFFFFF),
            victim_last_type=int(line.last_access_type),
            victim_recency=_clamp(cache_set.recency(way), 0xFF),
            pc=access.pc,
            address=access.address,
            access_type=int(access.access_type),
        )
        if grade == HARMFUL and self.worst_n:
            self._note_worst(severity, event)
        if sampled:
            if self.capacity is not None and len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(event)
            self.sampled += 1

    def record_violation(self, policy_name: str, detail: str, set_index: int) -> None:
        """Sanitizer hook: a contract violation becomes a decision event."""
        if len(self._violations) >= MAX_VIOLATIONS:
            self.violation_overflow += 1
            return
        event = DecisionEvent(
            index=self.index,
            set_index=max(set_index, 0),
            way=NO_WAY,
            kind=KIND_VIOLATION,
            grade=UNGRADED,
            victim_line=0,
            victim_age_insert=0,
            victim_age_last=0,
            victim_hits=0,
            victim_last_type=int(AccessType.LOAD),
            victim_recency=0,
            pc=0,
            address=0,
            access_type=int(AccessType.LOAD),
        )
        self._violations.append((event, f"{policy_name}: {detail}"))

    # -- grading -----------------------------------------------------------

    def _epoch(self, index: int) -> int:
        if self.total <= 0:
            return 0
        return min(self.epochs - 1, index * self.epochs // self.total)

    def _grade(self, cache_set, way: int, access):
        """Belady grade of evicting ``way``; severity for harmful grades.

        The trace's oracle has consumed positions ``0..index-1`` (it
        advances at end-of-access), so resident lines' ``next_use`` values
        are strictly future, while the inserted line's next use must skip
        its own in-flight occurrence at ``index`` —
        :meth:`~repro.traces.oracle.NextUseOracle.next_use_after` does
        exactly that.  Grades are bit-identical to
        :func:`repro.rl.reward.belady_reward` driven by an oracle advanced
        *past* the current access (the convention
        :class:`repro.eval.agreement.OracleProbePolicy` uses).
        """
        oracle = self.oracle
        next_uses = [
            oracle.next_use(line.line_address) if line.valid else NEVER
            for line in cache_set.lines
        ]
        chosen = next_uses[way]
        if chosen == max(next_uses):
            return OPTIMAL, 0
        inserted = oracle.next_use_after(access.line_address, self.index)
        if chosen < inserted:
            # Severity: how much sooner the victim returns than the line
            # displacing it (never-reused inserts count as end-of-stream).
            bound = inserted if inserted != NEVER else max(self.total, chosen + 1)
            return HARMFUL, int(bound - chosen)
        return NEUTRAL, 0

    def _note_worst(self, severity: int, event: DecisionEvent) -> None:
        self._worst.append((severity, event.index, event))
        # Amortized deterministic pruning: keep the table small without
        # resorting the list on every harmful decision.
        if len(self._worst) > 4 * self.worst_n:
            self._worst.sort(key=lambda item: (-item[0], item[1]))
            del self._worst[self.worst_n:]

    # -- results -----------------------------------------------------------

    @property
    def graded(self) -> int:
        """Number of graded decisions."""
        return self.optimal + self.neutral + self.harmful

    @property
    def regret_x2(self) -> int:
        """Twice the summed regret (regret = (1 - grade) / 2 per decision)."""
        return self.neutral + 2 * self.harmful

    def events(self) -> list:
        """The sampled events currently in the ring (oldest first)."""
        return list(self._ring)

    def violations(self) -> list:
        """Recorded contract violations as ``(event, detail)`` pairs."""
        return list(self._violations)

    def worst_decisions(self) -> list:
        """Top-N harmful decisions as ``(severity, event)``, worst first."""
        ranked = sorted(self._worst, key=lambda item: (-item[0], item[1]))
        return [(severity, event) for severity, _, event in ranked[: self.worst_n]]

    def summary(self) -> dict:
        """Aggregate integers (rates are derived by consumers)."""
        return {
            "evictions": self.evictions,
            "sampled": self.sampled,
            "dropped": self.dropped,
            "graded": self.graded,
            "optimal": self.optimal,
            "neutral": self.neutral,
            "harmful": self.harmful,
            "regret_x2": self.regret_x2,
            "violations": len(self._violations) + self.violation_overflow,
        }

    def cell_payload(self) -> dict:
        """The JSON-safe record of this cell for the decision log."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "sample_rate": self.sample_rate,
            "total": self.total,
            "graded_mode": self.oracle is not None,
            "summary": self.summary(),
            "epochs": {
                "decisions": list(self.epoch_decisions),
                "neutral": list(self.epoch_neutral),
                "harmful": list(self.epoch_harmful),
            },
            "set_evictions": {
                str(set_index): self.set_evictions[set_index]
                for set_index in sorted(self.set_evictions)
            },
            "worst": [
                {"severity": severity, **event_to_json(event)}
                for severity, event in self.worst_decisions()
            ],
            "events": [event_to_json(event) for event in self.events()],
            "violations": [
                {**event_to_json(event), "detail": detail}
                for event, detail in self._violations
            ],
        }


# -- the active-trace sink (sanitizer -> decision log) -------------------------

_active_trace: Optional[DecisionTrace] = None


def activate(trace: DecisionTrace) -> None:
    """Route sanitizer violations to ``trace`` (process-local, one deep)."""
    global _active_trace
    _active_trace = trace


def deactivate(trace: DecisionTrace = None) -> None:
    """Stop routing violations (no-op if ``trace`` is no longer active)."""
    global _active_trace
    if trace is None or _active_trace is trace:
        _active_trace = None


def active_trace() -> Optional[DecisionTrace]:
    """The trace currently receiving sanitizer violations, if any."""
    return _active_trace


# -- log codec -----------------------------------------------------------------


def is_object_cell(cell: dict) -> bool:
    """True for an object-cache cell (it carries a size-bucket profile)."""
    return "size_buckets" in cell


def cell_label(cell: dict) -> str:
    """``workload / policy``, plus ``/ seed N`` when the cell names its seed
    (a sweep's cells do, so a multi-seed log tells its cells apart)."""
    label = f"{cell.get('workload')} / {cell.get('policy')}"
    return f"{label} / seed {cell['seed']}" if "seed" in cell else label


def write_decisions_jsonl(path, cells) -> Path:
    """Atomically write the JSONL decision log for ``cells``.

    ``cells`` are ``cell_payload()`` dicts of either cache kind, already in
    deterministic report order; object-cache cells get the
    :data:`OBJECT_FORMAT_NAME` header.
    """
    kind = FORMAT_NAME
    if any(is_object_cell(cell) for cell in cells):
        kind = OBJECT_FORMAT_NAME
    lines = [
        json.dumps(
            {"format": kind, "version": FORMAT_VERSION, "cells": len(cells)},
            sort_keys=True,
        )
    ]
    for cell in cells:
        header = {key: value for key, value in cell.items()
                  if key not in ("events", "violations")}
        header["type"] = "cell"
        header["events"] = len(cell.get("events", ()))
        if not is_object_cell(cell):
            header["violations"] = len(cell.get("violations", ()))
        lines.append(json.dumps(header, sort_keys=True))
        for entry in cell.get("events", ()):
            lines.append(json.dumps(entry, sort_keys=True))
        for entry in cell.get("violations", ()):
            lines.append(json.dumps(entry, sort_keys=True))
    path = Path(path)
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def _count_salvaged(amount: int) -> None:
    """Bump the ``telemetry.salvaged`` counter (trace-quarantine idiom)."""
    from repro.telemetry import get_registry

    get_registry().counter("telemetry.salvaged").inc(amount)


def read_decision_log(path, salvage: bool = False) -> list:
    """Load a decision log of either cache kind.

    Returns a list of cell dicts shaped like the recorder's
    ``cell_payload()``, events re-nested under each cell.

    A damaged log (torn tail, truncation) raises a *located*
    :class:`~repro.store.errors.ArtifactCorruptionError` naming the first
    bad line — unless ``salvage=True``, which instead returns every
    complete leading cell, drops the damaged tail, and counts the loss in
    the ``telemetry.salvaged`` counter (the trace-quarantine idiom), so
    readers degrade gracefully after a crash.
    """
    from repro.store.errors import ArtifactCorruptionError

    path = Path(path)
    if not path.is_file():
        raise ValueError(f"no decision log at {path}")
    text = path.read_bytes().decode("utf-8", errors="replace")
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty decision log")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") not in (
        FORMAT_NAME, OBJECT_FORMAT_NAME,
    ):
        raise ValueError("not a repro decision log (bad header line)")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"decision-log version {header.get('version')!r} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    cells = []
    current = None
    declared = None  #: event+violation count the current cell header promised
    for number, line in enumerate(lines[1:], start=2):
        try:
            entry = json.loads(line)
            if not isinstance(entry, dict):
                raise ValueError("line is not a JSON object")
        except ValueError as error:
            if salvage:
                # Salvage: keep the complete leading cells.  A cell whose
                # declared event counts are unmet was interrupted and is
                # dropped; a cell already complete stays (the torn line
                # was the start of the *next* record).
                if current is not None:
                    received = (len(current["events"])
                                + len(current.get("violations", ())))
                    if declared is None or received < declared:
                        cells.pop()
                _count_salvaged(len(lines) - number + 1)
                return cells
            raise ArtifactCorruptionError(
                f"decision log is damaged: line {number} does not parse "
                f"({error})",
                reason="truncated" if number == len(lines) else "bad_payload",
                path=path,
                frame=number,
            ) from error
        kind = entry.get("type")
        if kind == "cell":
            counts = (entry.get("events"), entry.get("violations", 0))
            declared = (sum(counts) if all(isinstance(count, int)
                                           for count in counts) else None)
            current = {key: value for key, value in entry.items()
                       if key != "type"}
            current["events"] = []
            if "violations" in entry:
                current["violations"] = []
            cells.append(current)
        elif current is None:
            raise ValueError("decision event before any cell header")
        elif kind == "violation":
            current.setdefault("violations", []).append(entry)
        elif kind in ("event", None):  # object-cache events carry no type
            current["events"].append(entry)
        else:
            raise ValueError(f"unknown decision-log line type {kind!r}")
    if header.get("cells") not in (None, len(cells)):
        raise ValueError(
            f"decision log declares {header['cells']} cells, found "
            f"{len(cells)}"
        )
    return cells


#: Grades an object-cache event may carry ("" = ungraded).
_OBJECT_GRADES = ("", "optimal", "neutral", "harmful")


def _event_problems(label: str, cell: dict, entry: dict) -> list:
    """Problems with one event line of ``cell``, for the cell's kind."""
    if is_object_cell(cell):
        problems = []
        if entry.get("grade", "") not in _OBJECT_GRADES:
            problems.append(
                f"{label}: event {entry.get('index')} has unknown grade "
                f"{entry.get('grade')!r}"
            )
        if entry.get("size", 1) <= 0:
            problems.append(
                f"{label}: event {entry.get('index')} has non-positive size"
            )
        return problems
    try:
        event = event_from_json(entry)
    except (KeyError, ValueError, TypeError) as error:
        return [f"{label}: bad event {entry!r}: {error}"]
    problems = []
    if event.grade not in (OPTIMAL, NEUTRAL, HARMFUL, UNGRADED):
        problems.append(
            f"{label}: event at index {event.index} has invalid grade "
            f"{event.grade}"
        )
    if cell.get("total") and event.index > int(cell["total"]):
        problems.append(
            f"{label}: event index {event.index} beyond stream total "
            f"{cell['total']}"
        )
    return problems


def validate_decision_log(path) -> list:
    """Schema check of a log of either kind; one line per problem."""
    from repro.store.errors import ArtifactCorruptionError

    try:
        cells = read_decision_log(path)
    except (ValueError, KeyError, UnicodeDecodeError,
            ArtifactCorruptionError) as error:
        return [str(error)]
    problems = []
    for position, cell in enumerate(cells):
        label = f"cell {position} ({cell.get('workload')}/{cell.get('policy')})"
        if not cell.get("workload"):
            problems.append(f"{label}: missing workload name")
        if int(cell.get("sample_rate", 0)) < 1:
            problems.append(f"{label}: sample_rate must be >= 1")
        summary = cell.get("summary")
        if not isinstance(summary, dict):
            problems.append(f"{label}: missing summary")
            continue
        events = cell.get("events", ())
        if summary.get("sampled", 0) - summary.get("dropped", 0) != len(events):
            problems.append(
                f"{label}: summary.sampled != number of event lines"
            )
        if summary.get("graded", 0) != (summary.get("optimal", 0)
                                        + summary.get("neutral", 0)
                                        + summary.get("harmful", 0)):
            problems.append(f"{label}: graded != optimal + neutral + harmful")
        if summary.get("regret_x2", 0) != (summary.get("neutral", 0)
                                           + 2 * summary.get("harmful", 0)):
            problems.append(f"{label}: regret_x2 != neutral + 2*harmful")
        if summary.get("sampled", 0) > summary.get("evictions", 0):
            problems.append(f"{label}: sampled exceeds evictions")
        for entry in list(events) + list(cell.get("violations", ())):
            problems.extend(_event_problems(label, cell, entry))
    return problems
