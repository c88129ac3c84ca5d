"""ObjectRLR: the paper's RLR policy transplanted to variable-size objects.

RLR (§IV) scores each candidate with ``P = 8*P_age + P_type + P_hit`` and
evicts the lowest-priority line, where ``P_age`` protects lines younger
than the reuse-distance estimate ``RD = 2 x average preuse``.  The object
transplant keeps that structure — including the hardware-faithful
:class:`repro.core.rd_estimator.ReuseDistanceEstimator` — and maps the
components to the object world:

* ``P_age``: 8 when the object's age (requests since last access) is
  within the RD estimate — it is expected back soon;
* ``P_type``: 1 when the object had been requested *before* its admission
  (a re-admitted object is unlikely to be a one-hit wonder — the object
  analogue of RLR's demand-vs-prefetch access-type bit);
* ``P_hit``: 1 when the object has hit since admission.

The size-aware variant subtracts a trained **size-bucket term**: priorities
are scaled by 16 and ``size_weight * size_bucket`` (log2 of the object
size) is subtracted, so among otherwise-equal candidates the largest
objects go first — they buy back the most bytes per eviction and, in
traces where big objects are cold (inverse size-popularity correlation,
scan pollution), they are also the least likely to hit again.

``size_weight = 0`` is exactly the size-agnostic transplant, which is how
the trainer (`repro.objcache.train`) searches the weight: sweep the scale,
keep what wins byte-hit-rate.

Like production samplers (and unlike the 16-way CPU cache where scanning
the whole set is free), the victim scan examines the ``sample`` least
recently used residents rather than the full store.  Only ``P_age`` depends
on the eviction's ``now``: ``P_type``, ``P_hit`` and the size term are fixed
between an object's admission and its next hit, so the policy computes them
in those two hooks and the scan adds ``P_age`` alone.
"""

from __future__ import annotations

from itertools import islice

from repro.core.rd_estimator import ReuseDistanceEstimator

from .core import size_bucket
from .policies import ObjectEvictionPolicy, register_object_policy

#: Size-bucket weight the bundled trainer settles on for the golden Zipfian
#: scenarios (see tests/test_objcache_train.py, which re-derives it).
DEFAULT_SIZE_WEIGHT = 16

PRIORITY_SCALE = 16
AGE_PRIORITY = 8 * PRIORITY_SCALE


class ObjectRLRPolicy(ObjectEvictionPolicy):
    """RLR priorities over object metadata, with an optional size term.

    Args:
        size_weight: units of priority subtracted per size bucket
            (0 = size-agnostic RLR).
        sample: how many LRU-end candidates each eviction scores.
        log2_hits: RD epoch length (paper default 5 -> 32 hits).
    """

    name = "rlr"

    def __init__(self, size_weight: int = 0, sample: int = 256,
                 log2_hits: int = 5):
        if sample < 1:
            raise ValueError(f"rlr sample must be >= 1, got {sample}")
        self.size_weight = size_weight
        self.sample = sample
        self.name = "rlr_size" if size_weight else "rlr"
        self.rd = ReuseDistanceEstimator(log2_hits=log2_hits, initial_rd=0)
        # key -> (last access, priority without P_age), LRU -> MRU.  Every
        # request admits or hits at most one object, at its own ``now``, so
        # the stamps strictly increase along the order.
        self._order = {}

    def _static(self, obj) -> int:
        """``P_type + P_hit`` and the size term: fixed until the next hit."""
        score = PRIORITY_SCALE * (obj.seen_before + (obj.hits > 0))
        return score - self.size_weight * size_bucket(obj.size)

    def on_admit(self, obj, now):
        self._order[obj.key] = (now, self._static(obj))

    def on_hit(self, obj, now):
        # The cache updates obj.last_access before calling on_hit, so the
        # preuse distance (gap between consecutive accesses) comes from the
        # policy's own stamp, exactly like the age counters RLR samples in
        # hardware.
        previous, _ = self._order.pop(obj.key)
        self.rd.record_demand_hit(now - previous)
        self._order[obj.key] = (now, self._static(obj))

    def on_evict(self, obj, now):
        self._order.pop(obj.key, None)

    def victim(self, residents, incoming, now):
        # P_age (8, scaled) protects ages <= RD, i.e. stamps >= now - RD.
        # Lowest priority goes; ties evict the *most recent* candidate
        # (paper Fig. 7: RLR skews victims toward recent lines), which is
        # the later one in scan order, hence ``<=``.
        horizon = now - self.rd.rd
        best_key = best = None
        for key, (stamp, score) in islice(self._order.items(), self.sample):
            if stamp >= horizon:
                score += AGE_PRIORITY
            if best is None or score <= best:
                best_key, best = key, score
        return best_key


@register_object_policy(name="rlr")
def _rlr_factory(**params):
    params.setdefault("size_weight", 0)
    return ObjectRLRPolicy(**params)


@register_object_policy(name="rlr_size")
def _rlr_size_factory(**params):
    params.setdefault("size_weight", DEFAULT_SIZE_WEIGHT)
    return ObjectRLRPolicy(**params)
