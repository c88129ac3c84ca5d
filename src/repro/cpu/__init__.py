"""Core timing model, prefetchers, and system simulators.

Only the prefetchers are re-exported here: the timing/system modules import
the cache hierarchy (which itself imports the prefetchers), so re-exporting
them at package level would create an import cycle.  Import them by full
path: ``repro.cpu.core_model`` and ``repro.cpu.system``.
"""

from repro.cpu.prefetcher import (
    IPStridePrefetcher,
    KPCPrefetcher,
    NextLinePrefetcher,
    NoPrefetcher,
    Prefetcher,
    PrefetchRequest,
    make_prefetcher,
)

__all__ = [
    "IPStridePrefetcher",
    "KPCPrefetcher",
    "NextLinePrefetcher",
    "NoPrefetcher",
    "Prefetcher",
    "PrefetchRequest",
    "make_prefetcher",
]
