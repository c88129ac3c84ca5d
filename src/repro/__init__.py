"""repro — reproduction of "Designing a Cost-Effective Cache Replacement
Policy using Machine Learning" (Sethumurugan, Yin, Sartori; HPCA 2021).

Public API highlights:

* :class:`repro.core.RLRPolicy` / :class:`repro.core.RLRUnoptPolicy` — the
  paper's contribution.
* :mod:`repro.cache` — the simulated memory hierarchy substrate.
* :mod:`repro.cache.replacement` — LRU/DRRIP/SHiP/SHiP++/Hawkeye/KPC-R/
  Glider/MPPPB/Belady baselines and the policy registry.
* :mod:`repro.rl` — the offline RL design pipeline (DQN agent, feature
  analysis, hill climbing).
* :mod:`repro.eval` — the experiment harness regenerating every table and
  figure (see DESIGN.md section 4).
"""

from repro.cache import CacheConfig, CacheHierarchy, HierarchyConfig
from repro.cache.replacement import POLICY_REGISTRY, make_policy
from repro.core import RLRPolicy, RLRUnoptPolicy, table1
from repro.traces import AccessType, Trace, TraceRecord

__version__ = "1.0.0"

__all__ = [
    "AccessType",
    "CacheConfig",
    "CacheHierarchy",
    "HierarchyConfig",
    "POLICY_REGISTRY",
    "RLRPolicy",
    "RLRUnoptPolicy",
    "Trace",
    "TraceRecord",
    "make_policy",
    "table1",
    "__version__",
]
