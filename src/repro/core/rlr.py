"""RLR — Reinforcement Learned Replacement (paper §IV).

RLR is the paper's contribution: a PC-free LLC replacement policy derived
from the insights of a trained RL agent.  Each line carries an Age Counter,
a Hit Register, and a Type Register; a periodically refreshed reuse-distance
estimate RD (see :mod:`repro.core.rd_estimator`) splits lines into protected
(age <= RD) and eviction candidates, and the victim is the line with the
lowest priority

    P_line = 8 * P_age + P_type + P_hit  (+ P_core on multicore, §IV-D)

with recency used to break ties (the MOST recently accessed line is evicted,
per the paper's Figure 7 insight).

Two hardware variants are provided:

* :class:`RLRUnoptPolicy` — §V "RLR(unopt)": 5-bit age counter counting set
  accesses, 2-bit hit counter, 1-bit type register, true recency tie-break.
  10 bits/line => 40KB for a 2MB 16-way LLC.
* :class:`RLRPolicy` — §IV-C optimized: 2-bit age counter advanced once per
  8 set *misses* (3-bit per-set miss counter), 1-bit hit register, 1-bit type
  register, recency approximated by the age counter (age 0 = most recent;
  remaining ties break to the lowest way index).  4 bits/line + 3 bits/set
  => 16.75KB for a 2MB 16-way LLC.
"""

from __future__ import annotations

from repro.cache.replacement.base import BYPASS, ReplacementPolicy, register_policy
from repro.core.priority import PriorityWeights, is_prefetch, line_priority
from repro.core.rd_estimator import ReuseDistanceEstimator


class _RLRBase(ReplacementPolicy):
    """Shared machinery for both RLR variants.

    Args:
        age_bits: Width of the per-line age counter.
        hit_bits: Width of the per-line hit counter/register.
        count_misses: If True, age counters advance on set misses (optimized
            variant); if False, on every set access (unoptimized variant).
        quantize_log2: Advance line age counters once per ``2**quantize_log2``
            counted events (optimized variant uses 3, i.e. every 8 misses).
        true_recency: Use the exact recency stack for tie-breaks; otherwise
            approximate recency with the age counter (optimized variant).
        weights: Ablation switches for the priority terms.
        enable_bypass: Bypass the fill when no line's age exceeds RD.
        num_cores: When > 1, enable the §IV-D multicore core-priority term.
        rd_multiplier_log2: log2 of the RD multiplier (paper: 1 => RD = 2 x
            average preuse distance).
    """

    rd_epoch_log2 = 5  # RD refresh every 32 demand hits (paper)
    core_update_interval = 2000  # LLC accesses between P_core updates (paper)
    core_counter_bits = 12

    def __init__(
        self,
        age_bits: int,
        hit_bits: int,
        count_misses: bool,
        quantize_log2: int,
        true_recency: bool,
        weights: PriorityWeights = PriorityWeights(),
        enable_bypass: bool = False,
        num_cores: int = 1,
        rd_multiplier_log2: int = 1,
    ) -> None:
        super().__init__()
        self.age_bits = age_bits
        self.hit_bits = hit_bits
        self.count_misses = count_misses
        self.quantize_log2 = quantize_log2
        self.true_recency = true_recency
        self.weights = weights
        self.enable_bypass = enable_bypass
        self.num_cores = num_cores
        self.age_max = (1 << age_bits) - 1
        self.hit_max = (1 << hit_bits) - 1
        self.estimator = ReuseDistanceEstimator(
            log2_hits=self.rd_epoch_log2,
            initial_rd=0,
            max_rd=self.age_max,
            multiplier_log2=rd_multiplier_log2,
        )

    def _post_bind(self):
        self._age = [[0] * self.ways for _ in range(self.num_sets)]
        self._hit = [[0] * self.ways for _ in range(self.num_sets)]
        self._prefetched = [[False] * self.ways for _ in range(self.num_sets)]
        self._line_core = [[0] * self.ways for _ in range(self.num_sets)]
        self._quantum = [0] * self.num_sets  # per-set event counter (3-bit)
        self._core_hits = [0] * self.num_cores
        self._core_priority = [0] * self.num_cores
        self._llc_accesses = 0

    @property
    def reuse_distance(self) -> int:
        """The current RD estimate (in age-counter units)."""
        return self.estimator.rd

    # -- counter maintenance ---------------------------------------------

    def _advance_ages(self, set_index: int) -> None:
        """Advance the set's line age counters by one quantum event."""
        quantum_mask = (1 << self.quantize_log2) - 1
        self._quantum[set_index] = (self._quantum[set_index] + 1) & quantum_mask
        if self._quantum[set_index] != 0:
            return
        ages = self._age[set_index]
        for way in range(self.ways):
            if ages[way] < self.age_max:
                ages[way] += 1

    def _tick_access(self, set_index: int) -> None:
        if not self.count_misses:
            self._advance_ages(set_index)

    def _tick_miss(self, set_index: int) -> None:
        if self.count_misses:
            self._advance_ages(set_index)

    def _tick_core(self, access) -> None:
        if self.num_cores <= 1:
            return
        self._llc_accesses += 1
        if self._llc_accesses % self.core_update_interval == 0:
            self._update_core_priorities()

    def _update_core_priorities(self) -> None:
        # Rank cores by demand hits; more hits => higher priority (0..3).
        order = sorted(range(self.num_cores), key=lambda c: self._core_hits[c])
        for rank, core in enumerate(order):
            self._core_priority[core] = min(rank, 3)
        self._core_hits = [0] * self.num_cores

    # -- policy hooks -------------------------------------------------------

    def on_hit(self, set_index, way, line, access):
        self._tick_access(set_index)
        self._tick_core(access)
        if access.access_type.is_demand:
            # The age counter value on a demand hit IS the (quantized)
            # preuse distance; it feeds the RD accumulator (Figure 9).
            self.estimator.record_demand_hit(self._age[set_index][way])
            if self.num_cores > 1:
                core = self._line_core[set_index][way]
                self._core_hits[core] = min(
                    self._core_hits[core] + 1, (1 << self.core_counter_bits) - 1
                )
        self._age[set_index][way] = 0
        if self._hit[set_index][way] < self.hit_max:
            self._hit[set_index][way] += 1
        self._prefetched[set_index][way] = is_prefetch(access.access_type)

    def on_miss(self, set_index, access):
        self._tick_access(set_index)
        self._tick_miss(set_index)
        self._tick_core(access)

    def on_fill(self, set_index, way, line, access):
        self._age[set_index][way] = 0
        self._hit[set_index][way] = 0
        self._prefetched[set_index][way] = is_prefetch(access.access_type)
        self._line_core[set_index][way] = access.core

    # -- victim selection ---------------------------------------------------

    def _priority(self, set_index: int, way: int) -> int:
        core_priority = 0
        if self.num_cores > 1:
            core_priority = self._core_priority[self._line_core[set_index][way]]
        return line_priority(
            age=self._age[set_index][way],
            reuse_distance=self.estimator.rd,
            last_access_was_prefetch=self._prefetched[set_index][way],
            hit_register=self._hit[set_index][way],
            core_priority=core_priority,
            weights=self.weights,
        )

    def victim(self, set_index, cache_set, access):
        # Hot path: inline the Figure 8 priority computation (the reference
        # implementation lives in repro.core.priority; unit tests check the
        # two agree).  Tie-breaks are folded into a single-pass min key:
        # unopt = (priority, -recency) [evict MOST recent among lowest],
        # opt   = (priority, age, way) [age approximates recency; then
        # lowest way index].
        ages = self._age[set_index]
        hits = self._hit[set_index]
        prefetched = self._prefetched[set_index]
        rd = self.estimator.rd
        lines = cache_set.lines
        ranks = cache_set.recencies() if self.true_recency else None
        weights = self.weights
        use_age, use_type, use_hit = weights.use_age, weights.use_type, weights.use_hit
        multicore = self.num_cores > 1
        best_way = -1
        best_key = None
        any_age_beyond_rd = False
        for way in range(self.ways):
            line = lines[way]
            if not line.valid:
                continue
            age = ages[way]
            if age > rd:
                any_age_beyond_rd = True
            priority = 0
            if use_age and age <= rd:
                priority += 8
            if use_type and not prefetched[way]:
                priority += 1
            if use_hit and hits[way]:
                priority += 1
            if multicore:
                priority += self._core_priority[self._line_core[set_index][way]]
            if self.true_recency:
                key = (priority, -ranks[way])
            else:
                key = (priority, age, way)
            if best_key is None or key < best_key:
                best_key = key
                best_way = way
        if self.enable_bypass and not any_age_beyond_rd:
            return BYPASS
        return best_way


@register_policy
class RLRPolicy(_RLRBase):
    """Optimized RLR (§IV-C): 16.75KB for a 2MB 16-way LLC."""

    name = "rlr"

    def __init__(
        self,
        weights: PriorityWeights = PriorityWeights(),
        enable_bypass: bool = False,
        num_cores: int = 1,
        age_bits: int = 2,
    ) -> None:
        super().__init__(
            age_bits=age_bits,
            hit_bits=1,
            count_misses=True,
            quantize_log2=3,
            true_recency=False,
            weights=weights,
            enable_bypass=enable_bypass,
            num_cores=num_cores,
        )

    @classmethod
    def overhead_bits(cls, config, num_cores: int = 1):
        per_line = 2 + 1 + 1  # age + hit + type
        per_set = 3  # quantum (set-miss) counter
        per_core = cls.core_counter_bits if num_cores > 1 else 0
        return (
            config.num_lines * per_line
            + config.num_sets * per_set
            + num_cores * per_core
        )


@register_policy
class RLRUnoptPolicy(_RLRBase):
    """Unoptimized RLR (§V "RLR(unopt)"): 40KB for a 2MB 16-way LLC."""

    name = "rlr_unopt"

    def __init__(
        self,
        weights: PriorityWeights = PriorityWeights(),
        enable_bypass: bool = False,
        num_cores: int = 1,
        age_bits: int = 5,
        hit_bits: int = 2,
        rd_multiplier_log2: int = 1,
    ) -> None:
        super().__init__(
            age_bits=age_bits,
            hit_bits=hit_bits,
            count_misses=False,
            quantize_log2=0,
            true_recency=True,
            weights=weights,
            enable_bypass=enable_bypass,
            num_cores=num_cores,
            rd_multiplier_log2=rd_multiplier_log2,
        )

    @classmethod
    def overhead_bits(cls, config, num_cores: int = 1):
        # The paper counts 10 bits/line (5b age + 2b hit + 1b type + recency
        # share) => 40KB at 2MB/16-way.
        per_core = cls.core_counter_bits if num_cores > 1 else 0
        return config.num_lines * 10 + num_cores * per_core


def _make_rlr_tuned(**kwargs) -> RLRUnoptPolicy:
    """RLR re-tuned for this repository's traffic mix ("rlr_tuned").

    The paper's 5-bit age counter and RD = 2 x average-preuse were chosen
    empirically for their ChampSim traffic (§IV-C).  Our synthetic streams
    carry a larger non-demand share, inflating per-set distances, so the
    same §IV-C tuning procedure lands at a 7-bit counter and a 4x RD
    multiplier (still a single shift in hardware; ~12 bits/line => 48KB at
    2MB).  See EXPERIMENTS.md for the sensitivity data.
    """
    kwargs.setdefault("age_bits", 7)
    kwargs.setdefault("rd_multiplier_log2", 2)
    return RLRUnoptPolicy(**kwargs)


register_policy(_make_rlr_tuned, name="rlr_tuned")
