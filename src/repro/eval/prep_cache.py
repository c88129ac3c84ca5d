"""On-disk cache for pass-1 :class:`~repro.eval.runner.PreparedWorkload`s.

Pass 1 of the record-once/replay-per-policy runner runs L1/L2 and the
prefetchers over the whole trace to record the LLC stream — and its output
depends only on the trace and the policy-independent configuration.  This
module caches those artifacts on disk, keyed by a SHA-256 content hash of

* the trace's canonical byte encoding (:func:`repro.traces.trace_io.trace_to_bytes`),
* the derived hierarchy configuration (cache geometries, latencies,
  prefetchers — so e.g. changing the LLC associativity changes the key),
* the warm-up fraction, core count, L2 prefetcher override, and
  :class:`~repro.cache.config.CoreConfig` timing parameters.

Any perturbation of the simulated inputs therefore produces a different key
and a cache miss; identical inputs skip pass 1 entirely.  Entries are
pickles wrapped in the checksummed frame container
(:mod:`repro.store.frames`, family ``"prep-cache"``) written atomically, so
truncation, torn writes, and bit flips are *detected*, not unpickled.  A
corrupt entry is handled the self-healing way: the bad file is moved into a
``quarantine/`` subdirectory (never deleted silently, never re-read as a
perpetual warning), counted (``corrupt``/``quarantined``), surfaced as a
:class:`PrepCacheCorruptionWarning` naming the affected key — and the entry
is transparently rebuilt by the caller's ordinary miss path, so the next
access stores a fresh valid copy.  Version-mismatched entries (stale
``FORMAT_VERSION`` or pre-integrity-layer bare pickles) remain silent
misses: they are expected after upgrades, not damage.
"""

from __future__ import annotations

import hashlib
import pickle
import warnings
from pathlib import Path
from typing import Optional

from repro.cache.config import CoreConfig
from repro.store.errors import ArtifactCorruptionError
from repro.store.frames import is_framed, read_artifact, write_artifact
from repro.testing.faults import maybe_fault
from repro.traces.record import Trace
from repro.traces.trace_io import trace_to_bytes

#: Bump to invalidate every existing cache entry (layout changes).
#: v3: framed container (repro.store) around the pickle; v4: pass 1 records
#: the LLC stream without simulating an LLC, so ``hierarchy_stats["llc"]``
#: holds only the access count.
FORMAT_VERSION = 4

#: Frame-container family tag for cache entries.
PREP_CACHE_FAMILY = "prep-cache"

#: Subdirectory corrupt entries are moved into (fsck reports its contents).
QUARANTINE_DIR = "quarantine"


class PrepCacheCorruptionWarning(UserWarning):
    """A cache entry was unreadable; it was quarantined for rebuild."""


class PrepCache:
    """A directory of content-addressed ``PreparedWorkload`` artifacts.

    ``load`` returns ``None`` on any miss *or* unreadable entry — callers
    always fall back to re-simulating, so a corrupt cache can degrade
    performance but never correctness.  An unreadable entry is moved to
    ``quarantine/`` so the rebuilt entry takes its place on the next
    ``store`` (self-healing); ``hits``/``misses``/``corrupt``/
    ``quarantined`` counters make cache behaviour observable in tests and
    reports, and every corrupt entry additionally raises a
    :class:`PrepCacheCorruptionWarning` naming the affected key.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.quarantined = 0

    def path(self, key: str) -> Path:
        """Filesystem path of the entry for ``key``."""
        return self.directory / f"{key}.pkl"

    def quarantine_dir(self) -> Path:
        return self.directory / QUARANTINE_DIR

    def stats(self) -> dict:
        """Counter snapshot for telemetry and end-of-run summaries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
        }

    def _corrupt_entry(self, key: str, reason: str) -> None:
        """Quarantine, count, and surface one unreadable entry (still a miss)."""
        self.misses += 1
        self.corrupt += 1
        quarantined = self._quarantine(key)
        warnings.warn(
            f"prep cache entry {key} is corrupt ({reason}); "
            + ("quarantined and " if quarantined else "")
            + "rebuilding on this miss",
            PrepCacheCorruptionWarning,
            stacklevel=3,
        )

    def _quarantine(self, key: str) -> bool:
        """Move the bad entry aside (never silently delete); False on failure."""
        from repro.store.fsck import quarantine_file

        source = self.path(key)
        try:
            quarantine_file(source, self.quarantine_dir(), reason="corrupt")
        except OSError:
            return False  # cross-device or permission trouble: leave in place
        self.quarantined += 1
        return True

    def load(self, key: str):
        """The cached ``PreparedWorkload`` for ``key``, or ``None``."""
        path = self.path(key)
        maybe_fault("prep-cache", key=key, path=str(path))
        try:
            with open(path, "rb") as handle:
                head = handle.read(4)
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as error:
            self._corrupt_entry(key, f"{error.__class__.__name__}: {error}")
            return None
        try:
            if is_framed(head):
                payload = pickle.loads(
                    read_artifact(path, family=PREP_CACHE_FAMILY)
                )
            else:
                # Pre-integrity-layer entry: a bare pickle.  If it decodes,
                # its stale FORMAT_VERSION makes it a silent miss below; if
                # it does not even decode, it is garbage, i.e. corruption.
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
        except ArtifactCorruptionError as error:
            self._corrupt_entry(key, f"{error.reason}{error.locate()}")
            return None
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as error:
            # Bad bytes inside a valid frame (missing class, pickle drift)
            # or an unpicklable legacy file.
            self._corrupt_entry(key, f"{error.__class__.__name__}: {error}")
            return None
        if not isinstance(payload, dict):
            self._corrupt_entry(key, "entry is not a cache payload")
            return None
        if payload.get("version") != FORMAT_VERSION:
            # Stale format after an upgrade: an expected, silent miss.
            self.misses += 1
            return None
        prepared = payload.get("prepared")
        if (
            payload.get("key") != key
            or prepared is None
            or not hasattr(prepared, "llc_records")
        ):
            self._corrupt_entry(key, "payload failed validation")
            return None
        self.hits += 1
        return prepared

    def store(self, key: str, prepared) -> None:
        """Persist ``prepared`` under ``key`` (atomic, durable write)."""
        payload = {"version": FORMAT_VERSION, "key": key, "prepared": prepared}
        try:
            write_artifact(
                self.path(key),
                PREP_CACHE_FAMILY,
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
                version=FORMAT_VERSION,
            )
        except OSError:
            # Caching is best-effort; a full disk must not fail the sweep.
            pass


def workload_cache_key(
    eval_config,
    trace: Trace,
    num_cores: int = 1,
    l2_prefetcher: Optional[str] = None,
    core_config: Optional[CoreConfig] = None,
) -> str:
    """Content hash of everything :func:`prepare_workload` depends on."""
    hierarchy = eval_config.hierarchy(num_cores=num_cores)
    hasher = hashlib.sha256()
    hasher.update(b"repro-prep-v%d\0" % FORMAT_VERSION)
    hasher.update(trace_to_bytes(trace))
    configuration = "\0".join(
        (
            f"warmup={eval_config.warmup_fraction!r}",
            f"hierarchy={hierarchy!r}",
            f"num_cores={num_cores!r}",
            f"l2_prefetcher={l2_prefetcher!r}",
            f"core={(core_config or CoreConfig())!r}",
        )
    )
    hasher.update(configuration.encode("utf-8"))
    return hasher.hexdigest()


def attach_prep_cache(eval_config, directory) -> PrepCache:
    """Attach a :class:`PrepCache` to ``eval_config``.

    Every runner entry point that goes through ``_prepared`` (and the
    parallel sweep engine) will consult and populate it.
    """
    cache = PrepCache(directory)
    eval_config.prep_cache = cache
    return cache
