"""``repro.sanitize`` — validation and graceful degradation.

The defensive layer between untrusted *data and logic* (replacement
policies, trace files, training dynamics) and the simulation core.  Three
guards, one mode switch:

* **policy contract sanitizer** (:mod:`repro.sanitize.policy_guard`):
  :func:`wrap_policy` puts a :class:`CheckedPolicy` proxy in front of every
  replacement policy, enforcing victim-range/bypass/hook-lifecycle rules;
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
    No wrapping at all — :func:`wrap_policy` returns its argument, so the
    per-access hot path is structurally identical to pre-sanitizer code
    (mirroring telemetry's disabled path, where ``span()`` and
    ``get_registry()`` return shared null objects).
"""

from __future__ import annotations

import os

from repro.sanitize.errors import (
    PolicyContractError,
    SanitizeError,
    TraceFormatError,
    TrainingDivergedError,
)
from repro.sanitize.policy_guard import CheckedPolicy

__all__ = [
    "CheckedPolicy",
    "DEFAULT_MODE",
    "ENV_MODE",
    "MODES",
    "PolicyContractError",
    "SanitizeError",
    "TraceFormatError",
    "TrainingDivergedError",
    "resolve_mode",
    "wrap_policy",
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


def wrap_policy(policy, mode: str = None, allow_bypass: bool = False):
    """Apply the contract sanitizer to ``policy`` according to ``mode``.

    Identity in ``off`` mode and for already-wrapped policies (idempotent,
    so the eval runner and :class:`~repro.cache.cache.Cache` can both call
    it without double-wrapping).
    """
    mode = resolve_mode(mode)
    if mode == "off" or isinstance(policy, CheckedPolicy):
        return policy
    return CheckedPolicy(
        policy, strict=(mode == "strict"), allow_bypass=allow_bypass
    )
