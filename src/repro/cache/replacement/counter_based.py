"""Counter-based replacement (Kharbutli & Solihin, IEEE TC 2008).

Cited as [18] in the paper: "each cache line is equipped with counters to
track events such as the number of accesses to the set between two
consecutive cache line accesses ...  When the counter reaches a threshold,
the line is eligible for replacement."  The original (AIP/LvP) also keeps a
PC-indexed prediction table that remembers expired thresholds for evicted
lines; this implementation provides both the counter machinery and the
optional prediction table.

Per line: an event counter (set accesses since last access), a learned
threshold, and a confidence bit.  On a hit, the threshold learns the
observed maximal gap; on a miss, lines whose counter exceeded their
threshold are expired and eligible for replacement (LRU among them).
"""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy, register_policy

TABLE_SIZE = 4096
COUNTER_MAX = 255


def _table_index(pc: int) -> int:
    return (pc ^ (pc >> 12)) & (TABLE_SIZE - 1)


@register_policy
class CounterBasedPolicy(ReplacementPolicy):
    """AIP-style counter-based replacement with a PC prediction table."""

    name = "counter"
    uses_pc = True
    #: Slack added to learned thresholds (original uses +1 granularity).
    THRESHOLD_SLACK = 1

    def __init__(self, use_prediction_table: bool = True) -> None:
        super().__init__()
        self.use_prediction_table = use_prediction_table
        self._table = [COUNTER_MAX] * TABLE_SIZE

    def _post_bind(self):
        self._counter = [[0] * self.ways for _ in range(self.num_sets)]
        self._threshold = [[COUNTER_MAX] * self.ways for _ in range(self.num_sets)]
        self._max_gap = [[0] * self.ways for _ in range(self.num_sets)]
        self._line_pc = [[0] * self.ways for _ in range(self.num_sets)]

    def _tick(self, set_index: int) -> None:
        counters = self._counter[set_index]
        for way in range(self.ways):
            if counters[way] < COUNTER_MAX:
                counters[way] += 1

    def on_hit(self, set_index, way, line, access):
        self._tick(set_index)
        gap = self._counter[set_index][way]
        if gap > self._max_gap[set_index][way]:
            self._max_gap[set_index][way] = gap
        # The line is alive at gap-level `gap`; raise its threshold to the
        # largest observed gap plus slack.
        self._threshold[set_index][way] = min(
            COUNTER_MAX, self._max_gap[set_index][way] + self.THRESHOLD_SLACK
        )
        self._counter[set_index][way] = 0

    def on_miss(self, set_index, access):
        self._tick(set_index)

    def on_evict(self, set_index, way, line, access):
        if not self.use_prediction_table:
            return
        # Remember the line's lifetime behaviour for its allocating PC.
        index = _table_index(self._line_pc[set_index][way])
        observed = self._max_gap[set_index][way]
        if observed == 0:
            observed = self.THRESHOLD_SLACK  # dead on arrival: expire fast
        self._table[index] = (self._table[index] + observed) // 2

    def on_fill(self, set_index, way, line, access):
        self._counter[set_index][way] = 0
        self._max_gap[set_index][way] = 0
        self._line_pc[set_index][way] = access.pc
        if self.use_prediction_table:
            predicted = self._table[_table_index(access.pc)]
            self._threshold[set_index][way] = min(
                COUNTER_MAX, predicted + self.THRESHOLD_SLACK
            )
        else:
            self._threshold[set_index][way] = COUNTER_MAX

    def _expired(self, set_index: int, way: int) -> bool:
        return self._counter[set_index][way] > self._threshold[set_index][way]

    def victim(self, set_index, cache_set, access):
        valid = cache_set.valid_ways()
        expired = [way for way in valid if self._expired(set_index, way)]
        candidates = expired or valid
        # LRU among the candidates.
        return min(candidates, key=cache_set.recencies().__getitem__)

    @classmethod
    def overhead_bits(cls, config):
        per_line = 8 + 8 + 8  # counter + threshold + max-gap
        return config.num_lines * per_line + TABLE_SIZE * 8
