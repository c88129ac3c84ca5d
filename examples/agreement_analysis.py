"""Close the distillation loop: agent vs RLR decision quality.

The paper trains an agent against Belady-graded rewards, then distills RLR
from it.  This example measures, on one workload:

1. the agent's training curve (fraction of Belady-optimal decisions per
   window — §III-A's reward signal made visible), and
2. the final Belady-agreement of LRU, DRRIP, RLR, and the trained agent.

Usage:
    python examples/agreement_analysis.py [workload]
"""

import sys

from repro.eval import EvalConfig, belady_agreement, render_sparkline
from repro.eval.agreement import OracleProbePolicy
from repro.eval.runner import _prepared
from repro.cache.cache import Cache
from repro.rl.metrics import train_with_monitor
from repro.rl.policy_adapter import AgentReplacementPolicy
from repro.rl.trainer import TrainerConfig
from repro.traces.oracle import NextUseOracle


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "450.soplex"
    eval_config = EvalConfig(scale=32, trace_length=14_000, seed=7)
    trace = eval_config.trace(workload)
    prepared = _prepared(eval_config, trace, 1, None)
    records = prepared.llc_records

    print(f"workload: {workload} ({len(records)} LLC accesses)")
    print("training the agent ...")
    trained, curve = train_with_monitor(
        prepared.llc_config,
        records,
        TrainerConfig(hidden_size=48, epochs=2, seed=1),
        window=600,
    )
    print(f"training curve (optimal-decision rate per window):")
    print(f"  {render_sparkline(curve.optimal_rates)}  "
          f"(first {curve.optimal_rates[0]:.2f} -> last "
          f"{curve.final_optimal_rate:.2f})")

    print("\nfinal Belady agreement (optimal% / harmful%):")
    for name in ("lru", "drrip", "rlr"):
        profile = belady_agreement(eval_config, workload, name)
        print(f"  {name:10s} {100 * profile.optimal_rate:5.1f}% / "
              f"{100 * profile.harmful_rate:5.1f}%")
    # The trained agent, probed the same way.
    adapter = AgentReplacementPolicy(trained.agent, trained.extractor, train=False)
    probe = OracleProbePolicy(adapter, NextUseOracle(prepared.llc_line_stream))
    probe.bind(prepared.llc_config)
    cache = Cache(prepared.llc_config, probe, detailed=True)
    for record in records:
        cache.access(record)
    profile = probe.profile
    print(f"  {'rl agent':10s} {100 * profile.optimal_rate:5.1f}% / "
          f"{100 * profile.harmful_rate:5.1f}%")


if __name__ == "__main__":
    main()
