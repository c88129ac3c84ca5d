"""Extending the framework: write and evaluate your own replacement policy.

Implements a toy "protect-dirty" policy through the public
:class:`repro.cache.replacement.ReplacementPolicy` interface, registers it,
and benchmarks it against LRU and RLR on a write-heavy workload — the same
harness the paper's policies use.

Usage:
    python examples/custom_policy.py
"""

from repro.cache.replacement import ReplacementPolicy, register_policy
from repro.eval import EvalConfig, compare_policies, speedup_percent


@register_policy
class ProtectDirtyPolicy(ReplacementPolicy):
    """Evict clean lines before dirty ones; LRU order within each class.

    Dirty evictions cost a memory write, so retaining dirty lines trades
    read misses for write traffic — rarely a good deal for IPC, which this
    example demonstrates empirically.
    """

    name = "protect_dirty"

    def victim(self, set_index, cache_set, access):
        ranks = cache_set.recencies()  # 0 = LRU .. ways-1 = MRU

        def eviction_key(way):
            return (cache_set.lines[way].dirty, ranks[way])  # clean, then LRU

        return min(cache_set.valid_ways(), key=eviction_key)


def main() -> None:
    eval_config = EvalConfig(scale=16, trace_length=30_000, seed=7)
    trace = eval_config.trace("470.lbm")  # write-heavy streaming model
    results = compare_policies(
        eval_config, trace, ["lru", "rlr", "protect_dirty"]
    )
    baseline = results["lru"]
    print(f"workload: {trace.name}")
    print(f"\n{'policy':15s} {'LLC hit%':>9s} {'speedup':>9s}")
    for name, result in results.items():
        speedup = speedup_percent(result.single_ipc, baseline.single_ipc)
        print(f"{name:15s} {100 * result.llc_hit_rate:8.1f}% {speedup:+8.2f}%")


if __name__ == "__main__":
    main()
