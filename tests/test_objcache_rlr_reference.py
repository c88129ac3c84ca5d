"""``ObjectRLRPolicy`` against a per-candidate reference of the same rule.

The reference below scores every candidate from its ``CachedObject`` on
every eviction, the way the rule reads in the paper (§IV):
``P = 8·P_age + P_type + P_hit``, scaled by ``PRIORITY_SCALE``, minus
``size_weight · size_bucket(size)``, ranked by ``(P, −last_access, key)``
over the ``sample`` least recently used residents. The real policy keeps
each resident's age-independent terms instead and adds only ``P_age`` in
its scan, so the two must agree on every hit, every victim and the final
books.

Hypothesis streams drive one ``ObjectCache`` with each policy. The table
cases pin the §IV rule itself on a tiny cache, for both implementations.
The CI ``objcache-smoke`` job runs this file a second time beside the
object-cache fuzzer, at its example budget (``REPRO_FUZZ_EXAMPLES``) and
under the ``fuzz`` profile, so every run draws fresh examples.
"""

from __future__ import annotations

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
import hypothesis.strategies as st  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.core.rd_estimator import ReuseDistanceEstimator  # noqa: E402
from repro.objcache import ObjectCache, ObjectRequest  # noqa: E402
from repro.objcache.core import size_bucket  # noqa: E402
from repro.objcache.policies import ObjectEvictionPolicy  # noqa: E402
from repro.objcache.rlr import (  # noqa: E402
    DEFAULT_SIZE_WEIGHT,
    PRIORITY_SCALE,
    ObjectRLRPolicy,
)

_BUDGET = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))


class ReferenceRLR(ObjectEvictionPolicy):
    """Object RLR scored from scratch per candidate on every eviction."""

    name = "rlr-reference"

    def __init__(self, size_weight=0, sample=256, log2_hits=5):
        self.size_weight = size_weight
        self.sample = sample
        self.rd = ReuseDistanceEstimator(log2_hits=log2_hits, initial_rd=0)
        self._order = {}  # key -> None, LRU -> MRU
        self._last_seen = {}  # key -> position of its previous access

    def on_admit(self, obj, now):
        self._order[obj.key] = None
        self._last_seen[obj.key] = now

    def on_hit(self, obj, now):
        self.rd.record_demand_hit(now - self._last_seen[obj.key])
        self._last_seen[obj.key] = now
        del self._order[obj.key]
        self._order[obj.key] = None

    def on_evict(self, obj, now):
        del self._order[obj.key]
        del self._last_seen[obj.key]

    def priority(self, obj, now):
        score = 0
        if obj.age(now) <= self.rd.rd:
            score += 8  # P_age
        if obj.seen_before:
            score += 1  # P_type
        if obj.hits > 0:
            score += 1  # P_hit
        return score * PRIORITY_SCALE - self.size_weight * size_bucket(
            obj.size
        )

    def victim(self, residents, incoming, now):
        window = list(self._order)[:self.sample]
        return min(
            window,
            key=lambda key: (self.priority(residents[key], now),
                             -residents[key].last_access, key),
        )


def _drive(policy, capacity, requests, sanitize="off"):
    """Replay ``requests``; returns per-request hits, victims, books."""
    cache = ObjectCache(capacity, policy, sanitize=sanitize)
    victims = []
    cache.add_decision_observer(
        lambda victim, incoming, now: victims.append(victim.key))
    hits = [cache.access(request) for request in requests]
    assert cache.violations == []
    return hits, victims, cache.stats.as_dict(), list(cache.residents)


# -- differential -------------------------------------------------------------

_SIZES = st.sampled_from([1, 60, 100, 900, 4_000, 50_000, 250_000])
_STREAM = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # key
        st.integers(min_value=0, max_value=15),  # 0: this request resizes
        _SIZES,                                  # ... to this size
    ),
    min_size=100, max_size=400,  # long enough to evict, re-admit, resize
)


@settings(max_examples=_BUDGET or 60, deadline=None, print_blob=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    key_sizes=st.lists(_SIZES, min_size=31, max_size=31),
    stream=_STREAM,
    capacity=st.integers(min_value=100, max_value=200_000),
    sample=st.sampled_from([1, 2, 5, 256]),
    size_weight=st.sampled_from([0, 1, 16]),
    log2_hits=st.sampled_from([1, 5]),
    sanitize=st.sampled_from(["off", "normal", "strict"]),
)
def test_matches_reference(key_sizes, stream, capacity, sample, size_weight,
                           log2_hits, sanitize):
    requests = [
        ObjectRequest(key, resize if roll == 0 else key_sizes[key])
        for key, roll, resize in stream
    ]
    params = dict(size_weight=size_weight, sample=sample,
                  log2_hits=log2_hits)
    policy = ObjectRLRPolicy(**params)
    reference = ReferenceRLR(**params)
    assert (_drive(policy, capacity, requests, sanitize)
            == _drive(reference, capacity, requests, sanitize))
    assert policy.rd.rd == reference.rd.rd


# -- §IV rule, table-driven ---------------------------------------------------


def _units(*keys):
    return [ObjectRequest(key, 1) for key in keys]


# (params, capacity_bytes, requests, victims in eviction order)
CASES = {
    # 1 and 2 have hit (P_hit), 4 hits last: 3 is the one lowest, neither
    # the LRU nor the MRU resident.
    "lowest-priority-goes": (
        {}, 4, _units(1, 1, 2, 2, 3, 4, 4, 5), [3],
    ),
    # RD is still 0, so every resident scores 0: the most recent goes,
    # then the one just admitted.
    "ties-evict-the-most-recent": (
        {}, 3, _units(1, 2, 3, 4, 5), [3, 4],
    ),
    # 3 scores lowest but sits outside the two-entry LRU window; 1 and 2
    # tie inside it and the more recent of them goes.
    "outside-the-window-is-never-chosen": (
        {"sample": 2}, 3, _units(1, 1, 2, 2, 3, 4), [2],
    ),
    # Key 1's two hits (preuse 1 each) close a 2-hit epoch: RD = 2. At
    # the eviction (now = 6) key 2 is RD + 1 old, key 3 exactly RD.
    "age-equal-to-rd-is-protected": (
        {"log2_hits": 1}, 4, _units(1, 1, 1, 2, 3, 4, 5), [2],
    ),
    # Equal except for size: 2 is in bucket 11, 1 and 3 in bucket 6.
    "size-term-evicts-the-larger-bucket": (
        {"size_weight": DEFAULT_SIZE_WEIGHT}, 4_300,
        [ObjectRequest(1, 100), ObjectRequest(2, 4_000),
         ObjectRequest(3, 100), ObjectRequest(4, 200)],
        [2],
    ),
    # ... which the size-agnostic policy ignores: a plain tie.
    "size-blind-without-the-weight": (
        {}, 4_300,
        [ObjectRequest(1, 100), ObjectRequest(2, 4_000),
         ObjectRequest(3, 100), ObjectRequest(4, 200)],
        [3],
    ),
}


@pytest.mark.parametrize("implementation", [ObjectRLRPolicy, ReferenceRLR])
@pytest.mark.parametrize("case", sorted(CASES))
def test_section_iv_rule(case, implementation):
    params, capacity, requests, expected = CASES[case]
    _, victims, _, _ = _drive(implementation(**params), capacity, requests,
                              sanitize="strict")
    assert victims == expected
