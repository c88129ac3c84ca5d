"""``Cache`` against the naive reference model in ``tests/reference_cache.py``.

Both are driven by the same hypothesis streams, which also drive the
hierarchy's private LRU level (``PrivateLevel``). Under LRU the reference
picks its own victims. Under every other policy it is handed the way
``Cache``'s policy chose, so the substrate (lookup, fills, recency, ages,
Table II metadata, statistics) is checked under any eviction order.

The same streams check the engine's side of the policy contract: ``victim``
is asked only on a full set, every ``on_evict`` is followed directly by the
``on_fill`` for the same set and way, and nothing the engine or the sweep
does binds a policy a second time.
"""

from __future__ import annotations

import os

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache import Cache, CacheConfig, CacheHierarchy
from repro.cache.hierarchy import HIT, MISS, PrivateLevel
from repro.cache.replacement import POLICY_REGISTRY, make_policy
from repro.cache.replacement.belady import BeladyPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.traces.record import AccessType, TraceRecord

from tests.reference_cache import ReferenceCache

POLICIES = sorted(POLICY_REGISTRY)

#: Fields compared on every valid line of a detailed cache.
TABLE_II = ("dirty", "offset", "core", "insertion_pc", "last_pc",
            "last_access_type", "insertion_type", "preuse",
            "hits_since_insertion", "access_counts")

_operation = st.tuples(
    st.integers(min_value=0, max_value=15),  # 0: invalidate, else access
    st.integers(min_value=0, max_value=23),  # line address
    st.sampled_from(list(AccessType)),
    st.integers(min_value=0, max_value=3),  # pc slot
    st.integers(min_value=0, max_value=63),  # offset within the line
)
_geometry = st.tuples(st.sampled_from([1, 2, 4]),
                      st.integers(min_value=2, max_value=8))


@st.composite
def _streams(draw, invalidations=True):
    """Operations like ``_operation``, over a small pool of lines per stream.

    Hypothesis lists average about five elements, and five lines drawn
    from 24 rarely repeat, so few streams hit at all. With those streams
    and a drawn ``detailed`` flag, a plain cache whose write hits left the
    line clean passed ``test_matches_reference[srrip]`` in 10 of 20
    fresh-seed runs at 30 examples. A per-stream pool makes short streams
    hit, write-hit and evict.
    """
    pool = draw(st.lists(st.integers(min_value=0, max_value=23),
                         min_size=1, max_size=24, unique=True))
    roll = (st.integers(min_value=0, max_value=15) if invalidations
            else st.just(1))
    operation = st.tuples(
        roll,
        st.sampled_from(pool),
        st.sampled_from(list(AccessType)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=63),
    )
    # Every prefix is checked against the reference, so a floor of four
    # operations loses no short stream.
    return draw(st.lists(operation, min_size=4, max_size=120))


def _record(line, kind, pc, offset):
    return TraceRecord(address=line * 64 + offset, pc=pc * 4,
                       access_type=kind, core=pc % 2)


def _build(policy_name, records, sets, ways, detailed):
    config = CacheConfig("ref", sets * ways * 64, ways, latency=1)
    if policy_name == "belady":
        policy = BeladyPolicy([record.line_address for record in records])
    else:
        policy = make_policy(policy_name)
    policy.bind(config)
    return Cache(config, policy, detailed=detailed, sanitize="normal")


def _assert_same_state(cache, reference, detailed):
    for cache_set in cache.sets:
        stack = reference.sets[cache_set.index]
        valid = [way for way, line in enumerate(cache_set.lines) if line.valid]
        assert sorted(valid) == sorted(line.way for line in stack)
        ranks = cache_set.recencies()
        for ref_line in stack:
            way = ref_line.way
            line = cache_set.lines[way]
            assert line.line_address == ref_line.line_address
            assert line.dirty == ref_line.dirty
            assert ranks[way] == reference.recency(ref_line.line_address)
            if not detailed:
                continue
            for field in TABLE_II:
                assert getattr(line, field) == getattr(ref_line, field), field
            assert (cache_set.age_since_insertion(way)
                    == ref_line.age_since_insertion)
            assert (cache_set.age_since_last_access(way)
                    == ref_line.age_since_last_access)


def _run(policy_name, operations, geometry, detailed):
    sets, ways = geometry
    records = [_record(*op[1:]) for op in operations if op[0]]
    cache = _build(policy_name, records, sets, ways, detailed)
    reference = ReferenceCache(sets, ways)
    chosen = []
    cache.add_decision_observer(
        lambda cache_set, way, line, access: chosen.append(way))
    for roll, line, kind, pc, offset in operations:
        if not roll:
            assert cache.invalidate_line(line) == reference.invalidate(line)
            continue
        record = _record(line, kind, pc, offset)
        chosen.clear()
        result = cache.access(record)
        victim_way = chosen[0] if chosen and policy_name != "lru" else None
        hit, evicted, dirty = reference.access(record, victim_way)
        assert result.hit == hit
        assert result.evicted_line_address == evicted
        assert result.evicted_dirty == dirty
        _assert_same_state(cache, reference, detailed)
    assert cache.stats.summary() == reference.summary()
    assert cache.stats.compulsory_misses == reference.compulsory_misses


_SETTINGS = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

#: The CI fuzz job raises the differential tests' budget through this.
_BUDGET = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))
_DIFFERENTIAL = settings(_SETTINGS, max_examples=_BUDGET or 30,
                         print_blob=True)


# Drawing a stream costs more than checking it, so every stream runs on a
# plain and on a detailed cache rather than on one drawn at random.
@pytest.mark.parametrize("policy_name", POLICIES)
@_DIFFERENTIAL
@given(operations=_streams(invalidations=False), geometry=_geometry)
def test_matches_reference(policy_name, operations, geometry):
    for detailed in (False, True):
        _run(policy_name, operations, geometry, detailed)


@pytest.mark.parametrize("policy_name", POLICIES)
@_DIFFERENTIAL
@given(operations=_streams(), geometry=_geometry)
def test_matches_reference_with_invalidations(policy_name, operations,
                                              geometry):
    for detailed in (False, True):
        _run(policy_name, operations, geometry, detailed)


# At 30 examples a write hit that leaves the line clean went uncaught in
# some runs; the level is cheap to drive, so this test runs 300.
@settings(_SETTINGS, max_examples=300)
@given(operations=st.lists(_operation, max_size=120), geometry=_geometry)
def test_private_level_matches_reference(operations, geometry):
    """The hierarchy's private L1/L2 level is the reference's LRU."""
    sets, ways = geometry
    level = PrivateLevel(CacheConfig("ref", sets * ways * 64, ways, latency=1))
    reference = ReferenceCache(sets, ways)
    for roll, line, kind, pc, offset in operations:
        if not roll:
            assert level.invalidate_line(line) == reference.invalidate(line)
            continue
        hit, evicted, dirty = reference.access(_record(line, kind, pc, offset))
        expected = HIT if hit else (evicted if dirty else MISS)
        assert level.access(line, kind) == expected
    for lines, stack in zip(level.sets, reference.sets):
        assert list(lines.items()) == [(ref_line.line_address, ref_line.dirty)
                                       for ref_line in stack]
    assert level.stats.summary() == reference.summary()


# -- engine invariants --------------------------------------------------------


class RecordingLRU(LRUPolicy):
    """LRU that logs every hook call the cache makes, in order."""

    def __init__(self):
        super().__init__()
        self.events = []

    def on_hit(self, set_index, way, line, access):
        self.events.append(("hit", set_index, way))

    def on_miss(self, set_index, access):
        self.events.append(("miss", set_index, None))

    def on_evict(self, set_index, way, line, access):
        self.events.append(("evict", set_index, way))

    def on_fill(self, set_index, way, line, access):
        self.events.append(("fill", set_index, way))

    def victim(self, set_index, cache_set, access):
        full = (len(cache_set.stack) == cache_set.ways
                and all(line.valid for line in cache_set.lines))
        self.events.append(("victim", set_index, full))
        return super().victim(set_index, cache_set, access)


def _hook_events(operations, geometry):
    """Drive a RecordingLRU cache; returns (hook events, cache)."""
    sets, ways = geometry
    config = CacheConfig("ref", sets * ways * 64, ways, latency=1)
    policy = RecordingLRU()
    policy.bind(config)
    cache = Cache(config, policy, detailed=False, sanitize="strict")
    for roll, line, kind, pc, offset in operations:
        if roll:
            cache.access(_record(line, kind, pc, offset))
        else:
            cache.invalidate_line(line)
    return policy.events, cache


@_SETTINGS
@given(operations=st.lists(_operation, max_size=120), geometry=_geometry)
def test_victim_is_asked_only_on_a_full_set(operations, geometry):
    events, _ = _hook_events(operations, geometry)
    assert all(full for event, _, full in events if event == "victim")


@_SETTINGS
@given(operations=st.lists(_operation, max_size=120), geometry=_geometry)
def test_every_evict_is_followed_by_its_fill(operations, geometry):
    events, cache = _hook_events(operations, geometry)
    for index, (event, set_index, way) in enumerate(events):
        if event == "evict":
            assert events[index + 1] == ("fill", set_index, way)
    assert (sum(event == "evict" for event, _, _ in events)
            == cache.stats.evictions)


class BindOnce(LRUPolicy):
    """LRU whose ``bind`` fails when the instance is already bound."""

    name = "bind-once"

    def bind(self, config):
        if self.num_sets:
            raise AssertionError("bind called more than once")
        super().bind(config)


@pytest.fixture(scope="module")
def eval_config():
    from repro.eval.workloads import EvalConfig

    return EvalConfig(scale=64, trace_length=1500, seed=3)


def test_replay_binds_once(eval_config):
    from repro.eval.runner import prepare_workload, replay

    prepared = prepare_workload(eval_config, eval_config.trace("429.mcf"))
    violations = []
    result = replay(prepared, BindOnce(), sanitize="strict",
                    violations=violations)
    assert result.policy_name == "bind-once"
    assert violations == []


def test_hierarchy_binds_once(eval_config):
    hierarchy = CacheHierarchy(eval_config.hierarchy(), BindOnce(),
                               sanitize="strict")
    for record in eval_config.trace("429.mcf").records:
        hierarchy.access(record)
    assert hierarchy.llc.violations == []
    assert hierarchy.llc.stats.evictions > 0


def test_sweep_binds_each_cell_once(eval_config):
    from repro.eval.parallel import parallel_sweep

    report = parallel_sweep(eval_config, ["429.mcf", "471.omnetpp"],
                            [BindOnce()], jobs=1, use_cache=False,
                            sanitize="strict")
    assert [cell.status for cell in report.cells] == ["ok", "ok"]
