"""``repro.sanitize`` — validation and graceful degradation.

The defensive layer between untrusted *data and logic* (replacement
policies, trace files, training dynamics) and the simulation core.  One
mode switch decides what a failed check does:

* **policy contracts** are checked by the engines themselves, where each
  uses the policy's answer: :class:`~repro.cache.cache.Cache` checks the
  victim way, :class:`~repro.objcache.cache.ObjectCache` the victim key and
  the admission verdict;
* **trace ingestion hardening** (:mod:`repro.traces.trace_io` raises the
  typed :class:`TraceFormatError` with byte offsets / line numbers, and
  supports quarantining bad records);
* **training divergence guard** (:mod:`repro.sanitize.divergence`):
  NaN/Inf detection with checkpoint rollback, surfacing
  :class:`TrainingDivergedError` after repeated strikes.

Modes (per run, via the ``REPRO_SANITIZE`` environment variable or
explicit ``sanitize=`` arguments; see docs/validation.md):

``strict``
    Violations raise typed errors immediately (CI, debugging).
``normal`` (default)
    Violations are recorded and degraded gracefully: a misbehaving policy
    falls back to LRU for the rest of its cell, bad trace records can be
    quarantined, training rolls back to the last good checkpoint.  The
    sweep engine marks affected cells ``degraded`` instead of killing the
    sweep.
``off``
    No checks: the engines run their policies unchecked, exactly as they
    would without a sanitizer.
"""

from __future__ import annotations

import os

from repro.sanitize.errors import (
    PolicyContractError,
    SanitizeError,
    TraceFormatError,
    TrainingDivergedError,
)

__all__ = [
    "DEFAULT_MODE",
    "ENV_MODE",
    "MODES",
    "PolicyContractError",
    "SanitizeError",
    "TraceFormatError",
    "TrainingDivergedError",
    "resolve_mode",
]

#: Environment override for the process-wide default mode.
ENV_MODE = "REPRO_SANITIZE"
#: Recognized sanitizer modes.
MODES = ("off", "normal", "strict")
#: Mode used when neither an explicit argument nor the environment says.
DEFAULT_MODE = "normal"


def resolve_mode(mode: str = None) -> str:
    """Normalize a sanitizer mode: explicit arg > environment > default.

    Raises :class:`ValueError` on an unknown mode name so typos in
    ``REPRO_SANITIZE`` or ``--sanitize`` fail loudly, not silently-off.
    """
    if mode is None:
        mode = os.environ.get(ENV_MODE) or DEFAULT_MODE
    mode = mode.strip().lower()
    if mode not in MODES:
        raise ValueError(
            f"unknown sanitize mode {mode!r}; expected one of {MODES}"
        )
    return mode
