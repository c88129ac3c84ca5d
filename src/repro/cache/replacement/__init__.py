"""Replacement policies: framework, baselines, and registry.

Importing this package registers every built-in policy in
:data:`POLICY_REGISTRY`; RLR registers itself when :mod:`repro.core` is
imported (done by the top-level :mod:`repro` package).
"""

from repro.cache.replacement.base import (
    BYPASS,
    POLICY_REGISTRY,
    ReplacementPolicy,
    make_policy,
    register_policy,
)
from repro.cache.replacement.belady import BeladyPolicy
from repro.cache.replacement.glider import GliderPolicy
from repro.cache.replacement.hawkeye import HawkeyePolicy
from repro.cache.replacement.kpc import KPCRPolicy
from repro.cache.replacement.lru import LRUPolicy, MRUPolicy
from repro.cache.replacement.mpppb import MPPPBPolicy
from repro.cache.replacement.random_policy import RandomPolicy
from repro.cache.replacement.rrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.cache.replacement.ship import SHiPPolicy, SHiPPPPolicy

__all__ = [
    "BYPASS",
    "POLICY_REGISTRY",
    "ReplacementPolicy",
    "make_policy",
    "register_policy",
    "BeladyPolicy",
    "GliderPolicy",
    "MPPPBPolicy",
    "HawkeyePolicy",
    "KPCRPolicy",
    "LRUPolicy",
    "MRUPolicy",
    "RandomPolicy",
    "BRRIPPolicy",
    "DRRIPPolicy",
    "SRRIPPolicy",
    "SHiPPolicy",
    "SHiPPPPolicy",
]
