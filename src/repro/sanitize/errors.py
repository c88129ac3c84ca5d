"""Typed error taxonomy for the validation subsystem.

Every defensive check in :mod:`repro.sanitize` fails through one of these
exception types, so callers (the sweep engine, the CLI, CI jobs) can tell a
*data/logic* violation apart from an ordinary bug:

* :class:`PolicyContractError` — a replacement policy, object policy or
  admission hook broke its contract (out-of-range or non-resident victim,
  unauthorized bypass, a raising hook, a non-bool admission verdict);
* :class:`TraceFormatError` — a trace file failed validation (bad magic,
  truncated tail, out-of-range field), with the byte offset / line number
  and record index in the message;
* :class:`TrainingDivergedError` — DQN training produced non-finite
  losses/weights and could not be recovered by checkpoint rollback.

``TraceFormatError`` subclasses :class:`ValueError` so pre-existing
``except ValueError`` handlers (notably the CLI's user-input handler) keep
printing a clean message instead of a traceback.
"""

from __future__ import annotations


class SanitizeError(RuntimeError):
    """Base class for validation-subsystem failures."""


class PolicyContractError(SanitizeError):
    """A policy or admission hook violated its contract.

    Attributes:
        policy: Registry name of the offending policy.
        set_index: Cache set where the violation occurred (-1 if n/a).
        detail: Human-readable description of the violated rule.
    """

    def __init__(self, policy: str, detail: str, set_index: int = -1) -> None:
        self.policy = policy
        self.set_index = set_index
        self.detail = detail
        where = f" (set {set_index})" if set_index >= 0 else ""
        super().__init__(f"policy {policy!r}{where}: {detail}")


class TraceFormatError(ValueError):
    """A trace file (CSV or binary) failed format validation.

    Attributes:
        source: File path or description of the byte source.
        line: 1-based CSV line number (None for binary traces).
        offset: Byte offset of the problem (None for CSV traces).
        record: 0-based index of the offending record (None if the header
            itself is bad).
    """

    def __init__(
        self,
        source: str,
        detail: str,
        line: int = None,
        offset: int = None,
        record: int = None,
    ) -> None:
        self.source = source
        self.line = line
        self.offset = offset
        self.record = record
        where = [str(source)]
        if line is not None:
            where.append(f"line {line}")
        if offset is not None:
            where.append(f"byte offset {offset}")
        if record is not None:
            where.append(f"record {record}")
        super().__init__(f"{', '.join(where)}: {detail}")


class TrainingDivergedError(SanitizeError):
    """Training diverged (NaN/Inf loss or weights) beyond recovery.

    Attributes:
        epoch: Epoch index that kept diverging.
        strikes: How many times the epoch diverged (rollbacks + final).
        detail: Description of the last divergence signal.
    """

    def __init__(self, epoch: int, strikes: int, detail: str) -> None:
        self.epoch = epoch
        self.strikes = strikes
        self.detail = detail
        super().__init__(
            f"training diverged at epoch {epoch} "
            f"({strikes} strike(s)): {detail}"
        )
