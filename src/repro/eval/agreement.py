"""Belady-agreement measurement for any policy.

The paper's reward grades each eviction against Belady: +1 for evicting the
line with the farthest next use, −1 for evicting a line that would be
reused sooner than the inserted one, 0 otherwise.  This module applies the
same grading to *any* policy's decisions during a replay, yielding a
decision-quality profile — how often a policy picks the OPT victim, and how
often it makes an actively harmful choice.  RLR's profile can be compared
directly against the RL agent's and against Belady's (always-optimal).

:func:`belady_agreement` reads the grades off the shared decision stream
(:mod:`repro.eval.decision_stream`); :class:`OracleProbePolicy`, the
original proxy-policy implementation, is kept as an independent
cross-check — the equivalence test asserts both gradings agree count for
count.  Both read next uses from a
:class:`~repro.traces.oracle.NextUseOracle`, but through separate grading
rules (``DecisionTrace._grade`` and :func:`repro.rl.reward.belady_reward`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import Cache
from repro.cache.replacement.base import ReplacementPolicy
from repro.eval.decision_stream import trace_decisions
from repro.eval.runner import _instantiate, _prepared
from repro.rl.reward import NEGATIVE_REWARD, POSITIVE_REWARD, belady_reward
from repro.traces.oracle import NextUseOracle


@dataclass
class AgreementProfile:
    """Decision grades for one (workload, policy) replay."""

    decisions: int = 0
    optimal: int = 0
    harmful: int = 0
    neutral: int = 0

    @property
    def optimal_rate(self) -> float:
        return self.optimal / self.decisions if self.decisions else 0.0

    @property
    def harmful_rate(self) -> float:
        return self.harmful / self.decisions if self.decisions else 0.0

    @classmethod
    def from_decision_trace(cls, decisions) -> "AgreementProfile":
        """Profile from a graded :class:`DecisionTrace`'s counters."""
        return cls(
            decisions=decisions.graded,
            optimal=decisions.optimal,
            harmful=decisions.harmful,
            neutral=decisions.neutral,
        )


class OracleProbePolicy(ReplacementPolicy):
    """Wraps a policy, grading every victim decision against the oracle."""

    name = "oracle_probe"
    needs_line_metadata = True  # conservatively maintain full metadata

    def __init__(self, inner: ReplacementPolicy,
                 oracle: NextUseOracle) -> None:
        super().__init__()
        self.inner = inner
        self.oracle = oracle
        self.profile = AgreementProfile()

    def bind(self, config):
        super().bind(config)
        self.inner.bind(config)

    def on_hit(self, set_index, way, line, access):
        self.oracle.advance(access.line_address)
        self.inner.on_hit(set_index, way, line, access)

    def on_miss(self, set_index, access):
        self.oracle.advance(access.line_address)
        self.inner.on_miss(set_index, access)

    def on_fill(self, set_index, way, line, access):
        self.inner.on_fill(set_index, way, line, access)

    def on_evict(self, set_index, way, line, access):
        self.inner.on_evict(set_index, way, line, access)

    def victim(self, set_index, cache_set, access):
        way = self.inner.victim(set_index, cache_set, access)
        if 0 <= way < self.ways:
            grade = belady_reward(self.oracle, cache_set, way, access)
            self.profile.decisions += 1
            if grade == POSITIVE_REWARD:
                self.profile.optimal += 1
            elif grade == NEGATIVE_REWARD:
                self.profile.harmful += 1
            else:
                self.profile.neutral += 1
        return way


def belady_agreement(eval_config, workload_name: str, policy) -> AgreementProfile:
    """Grade every eviction of ``policy`` on one workload against OPT.

    Runs one decision-traced replay (sampling is irrelevant here — the
    grade counters cover every eviction regardless).  Unlike the probe
    implementation, which skips gradings when the wrapped policy returns
    an out-of-contract way, the decision stream grades every eviction
    that actually happens, including sanitizer LRU fallbacks; for a
    contract-abiding policy the two are identical.
    """
    decisions = trace_decisions(
        eval_config, workload_name, policy, graded=True, capacity=1
    )
    return AgreementProfile.from_decision_trace(decisions)


def compare_agreement(eval_config, workload_name: str, policies) -> dict:
    """Agreement profiles for several policies on one workload."""
    return {
        (policy if isinstance(policy, str) else policy.name): belady_agreement(
            eval_config, workload_name, policy
        )
        for policy in policies
    }
