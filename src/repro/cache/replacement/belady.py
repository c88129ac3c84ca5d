"""Belady's OPT — the offline optimal replacement policy.

Belady evicts the line whose next use lies farthest in the future (never-
again-used lines first).  It needs the future LLC reference stream, which is
independent of the LLC's own replacement policy in this hierarchy (upper
levels never observe LLC state), so an exact two-pass simulation works:

1. Run the workload once, recording the LLC access stream
   (:attr:`repro.eval.runner.PreparedWorkload.llc_line_stream`).
2. Construct :class:`BeladyPolicy` with that stream and replay it.

The policy reads next uses from a :class:`~repro.traces.oracle.NextUseOracle`
over the stream, advancing it once per LLC access (one ``on_hit`` or
``on_miss``); the oracle raises if the replayed stream is not the recorded
one.  Each way's next use is kept in a per-set list, set on hit and on fill.
"""

from __future__ import annotations

from repro.cache.replacement.base import BYPASS, ReplacementPolicy, register_policy
from repro.traces.oracle import NEVER, NextUseOracle


@register_policy
class BeladyPolicy(ReplacementPolicy):
    """Exact offline OPT over a pre-recorded LLC line-address stream."""

    name = "belady"

    def __init__(self, future_line_addresses=(),
                 allow_bypass: bool = False) -> None:
        super().__init__()
        self.allow_bypass = allow_bypass
        self.oracle = NextUseOracle(future_line_addresses)
        self._uses = []
        self._incoming = NEVER

    def _post_bind(self) -> None:
        # Each way's next use; written by every fill before victim reads it
        # (victim runs only on a full set).
        self._uses = [[NEVER] * self.ways for _ in range(self.num_sets)]

    def on_hit(self, set_index, way, line, access):
        self._uses[set_index][way] = self.oracle.advance(access.line_address)

    def on_miss(self, set_index, access):
        self._incoming = self.oracle.advance(access.line_address)

    def on_fill(self, set_index, way, line, access):
        self._uses[set_index][way] = self._incoming

    def victim(self, set_index, cache_set, access):
        uses = self._uses[set_index]
        farthest = max(uses)
        if self.allow_bypass and self._incoming > farthest:
            return BYPASS
        # The lowest way among ties, which only never-reused lines can form.
        return uses.index(farthest)
