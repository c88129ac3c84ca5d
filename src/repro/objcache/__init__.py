"""``repro.objcache`` — the size-aware object-cache subsystem.

Everything the fixed-line CPU model cannot express: bytes-capacity caches
over variable-size objects, evict-until-fits eviction, admission control,
Zipfian/hotspot/flash-crowd/scan workload generators, a size-aware RLR
transplant with a trainable size-bucket term, and a size-aware Belady
oracle for regret grading.  See docs/object_caching.md.
"""

from repro.objcache.admission import (
    AdmissionHook,
    admission_names,
    make_admission,
)
from repro.objcache.cache import ObjectCache
from repro.objcache.core import (
    CachedObject,
    ObjectCacheError,
    ObjectCacheStats,
    ObjectRequest,
    size_bucket,
)
from repro.objcache.features import OBJECT_FEATURE_NAMES, ObjectFeatureExtractor
from repro.objcache.oracle import grade_object_eviction
from repro.objcache.policies import (
    ObjectEvictionPolicy,
    make_object_policy,
    object_policy_names,
)
from repro.objcache.replay import (
    ObjectCacheResult,
    object_sweep,
    replay_object_trace,
    traces_from_specs,
)
from repro.objcache.rlr import ObjectRLRPolicy
from repro.objcache.train import train_size_weight
from repro.objcache.trace_io import (
    load_object_trace,
    save_object_trace,
    validate_object_trace_file,
)
from repro.objcache.workloads import (
    SIZE_DISTS,
    WORKLOAD_KINDS,
    ObjectTrace,
    generate_object_trace,
)

__all__ = [
    "AdmissionHook",
    "CachedObject",
    "OBJECT_FEATURE_NAMES",
    "ObjectCache",
    "ObjectCacheError",
    "ObjectCacheResult",
    "ObjectCacheStats",
    "ObjectEvictionPolicy",
    "ObjectFeatureExtractor",
    "ObjectRLRPolicy",
    "ObjectRequest",
    "ObjectTrace",
    "SIZE_DISTS",
    "WORKLOAD_KINDS",
    "admission_names",
    "generate_object_trace",
    "grade_object_eviction",
    "load_object_trace",
    "make_admission",
    "make_object_policy",
    "object_policy_names",
    "object_sweep",
    "replay_object_trace",
    "save_object_trace",
    "size_bucket",
    "traces_from_specs",
    "train_size_weight",
    "validate_object_trace_file",
]
