"""The CPU policy contract, checked inside :class:`repro.cache.Cache`.

Every case pins its sanitizer mode explicitly, so the suite means the same
thing under a ``REPRO_SANITIZE=strict`` environment.
"""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import POLICY_REGISTRY, make_policy
from repro.cache.replacement.base import BYPASS, ReplacementPolicy
from repro.sanitize import MODES, PolicyContractError, resolve_mode
from repro.traces.record import AccessType, TraceRecord

from tests.conftest import cell_rows, load


def _config(sets=4, ways=4):
    return CacheConfig("t", sets * ways * 64, ways, latency=1)


class OutOfRangePolicy(ReplacementPolicy):
    """Returns a way index beyond the set after ``good`` correct victims."""

    name = "outofrange"

    def __init__(self, good: int = 0):
        super().__init__()
        self.good = good

    def victim(self, set_index, cache_set, access):
        if self.good > 0:
            self.good -= 1
            return cache_set.lru_way()
        return cache_set.ways + 3


class AlwaysBypassPolicy(ReplacementPolicy):
    name = "alwaysbypass"

    def victim(self, set_index, cache_set, access):
        return BYPASS


class NonePolicy(ReplacementPolicy):
    name = "nonepolicy"

    def victim(self, set_index, cache_set, access):
        return None


def _fill_and_overflow(cache, lines=32):
    for line in range(lines):
        cache.access(load(line))


def _cache(policy, mode, allow_bypass=False):
    config = _config()
    policy.bind(config)
    return Cache(config, policy, allow_bypass=allow_bypass, sanitize=mode)


class TestResolveMode:
    def test_default_is_normal(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert resolve_mode() == "normal"

    def test_environment_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "strict")
        assert resolve_mode() == "strict"

    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "strict")
        assert resolve_mode("off") == "off"

    def test_unknown_mode_fails_loudly(self):
        with pytest.raises(ValueError):
            resolve_mode("lenient")


class TestWrapPolicy:
    """Nothing wraps the policy: the cache holds the caller's instance."""

    def test_off_mode_is_structural_identity(self):
        for mode in MODES:
            policy = make_policy("lru")
            assert _cache(policy, mode).policy is policy
        # Off records nothing: an unauthorised BYPASS falls back to LRU
        # silently and the policy stays in place.
        policy = AlwaysBypassPolicy()
        cache = _cache(policy, "off")
        _fill_and_overflow(cache)
        assert cache.violations == []
        assert cache.policy is policy
        assert cache.stats.bypasses == 0


class TestStrictMode:
    def test_out_of_range_victim_raises_typed_error(self):
        cache = _cache(OutOfRangePolicy(), "strict")
        with pytest.raises(PolicyContractError) as excinfo:
            _fill_and_overflow(cache)
        assert str(excinfo.value) == (
            "policy 'outofrange' (set 0): victim way 7 outside range(ways=4)"
        )
        # Recorded before raising, exactly once.
        assert cache.violations == [str(excinfo.value)]

    def test_bypass_without_allowance_raises(self):
        cache = _cache(AlwaysBypassPolicy(), "strict", allow_bypass=False)
        with pytest.raises(PolicyContractError) as excinfo:
            _fill_and_overflow(cache)
        assert cache.violations == [
            "policy 'alwaysbypass' (set 0): returned BYPASS but the cache "
            "does not allow bypass"
        ]
        assert cache.violations == [str(excinfo.value)]

    def test_bypass_with_allowance_passes_through(self):
        cache = _cache(AlwaysBypassPolicy(), "strict", allow_bypass=True)
        _fill_and_overflow(cache)
        assert cache.stats.bypasses > 0
        assert cache.violations == []

    def test_non_integer_victim_raises(self):
        cache = _cache(NonePolicy(), "strict")
        with pytest.raises(PolicyContractError, match="victim way None "
                           r"outside range\(ways=4\)"):
            _fill_and_overflow(cache)
        assert len(cache.violations) == 1


class TestNormalModeDegradation:
    def test_violation_degrades_to_lru_and_records(self):
        policy = OutOfRangePolicy()
        cache = _cache(policy, "normal")
        _fill_and_overflow(cache)
        assert cache.violations == [  # recorded once, not per miss
            "policy 'outofrange' (set 0): victim way 7 outside range(ways=4)"
        ]
        assert cache.policy is not policy
        # Results keep naming the policy the caller passed.
        assert cache.policy.name == "outofrange"

    def test_degraded_cache_behaves_exactly_like_lru(self):
        bad_cache = _cache(OutOfRangePolicy(), "normal")
        lru_cache = _cache(make_policy("lru"), "off")
        for line in [0, 4, 8, 12, 16, 0, 4, 20, 8, 24, 12, 0, 28, 32]:
            bad_cache.access(load(line))
            lru_cache.access(load(line))
        assert len(bad_cache.violations) == 1
        assert bad_cache.stats.summary() == lru_cache.stats.summary()

    def test_no_violation_means_no_degradation(self):
        policy = make_policy("srrip")
        cache = _cache(policy, "normal")
        _fill_and_overflow(cache)
        assert cache.policy is policy
        assert cache.violations == []

    def test_violation_counts_into_telemetry(self):
        from repro import telemetry

        registry = telemetry.MetricsRegistry()
        telemetry.configure(registry=registry)
        try:
            _fill_and_overflow(_cache(OutOfRangePolicy(), "normal"))
        finally:
            telemetry.shutdown()
        counters = registry.snapshot()["counters"]
        assert [value for key, value in counters.items()
                if key.startswith("sanitize.policy_violations")] == [1]


_PROPERTY_ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=47),  # line address
        st.sampled_from(list(AccessType)),
        st.integers(min_value=0, max_value=7),  # pc slot
    ),
    min_size=1,
    max_size=200,
)

_GEOMETRIES = st.sampled_from([(2, 2), (4, 4), (2, 8), (8, 2)])


def _set_state(cache_set):
    return [
        (line.valid, line.tag, line.line_address, line.dirty, rank)
        for line, rank in zip(cache_set.lines, cache_set.recencies())
    ]


class TestContractProperty:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        accesses=_PROPERTY_ACCESSES,
        policy_name=st.sampled_from(sorted(POLICY_REGISTRY)),
        geometry=_GEOMETRIES,
    )
    def test_every_registry_policy_honours_the_contract(
        self, accesses, policy_name, geometry
    ):
        # Strict mode: any out-of-range victim or bypass abuse raises.
        # Additionally, an access to one set must never mutate any *other*
        # set's line state (valid even for set-dueling policies — only
        # cache-line state is checked).
        sets, ways = geometry
        config = CacheConfig("p", sets * ways * 64, ways, latency=1)
        records = [
            TraceRecord(address=line * 64, pc=pc * 4, access_type=access_type)
            for line, access_type, pc in accesses
        ]
        if policy_name == "belady":
            policy = make_policy(
                "belady",
                future_line_addresses=[r.line_address for r in records],
            )
        else:
            policy = make_policy(policy_name)
        policy.bind(config)
        cache = Cache(config, policy, sanitize="strict")
        for record in records:
            accessed = config.set_index(record.line_address)
            before = {
                index: _set_state(cache.sets[index])
                for index in range(sets)
                if index != accessed
            }
            cache.access(record)
            for index, state in before.items():
                assert _set_state(cache.sets[index]) == state, (
                    f"{policy_name} mutated set {index} while set "
                    f"{accessed} was accessed"
                )
        assert cache.violations == []


class TestSweepDegradation:
    def _sweep(self, policies, sanitize, tmp_path):
        from repro.eval.parallel import parallel_sweep
        from repro.eval.workloads import EvalConfig

        eval_config = EvalConfig(scale=64, trace_length=1500, seed=3)
        return parallel_sweep(
            eval_config,
            ["429.mcf"],
            policies,
            jobs=1,
            use_cache=False,
            sanitize=sanitize,
        )

    def test_normal_mode_marks_cell_degraded(self, tmp_path):
        report = self._sweep(["lru", OutOfRangePolicy(good=5)], "normal", tmp_path)
        bad = report.cell("429.mcf", "outofrange")
        assert bad.ok
        assert bad.status == "degraded"
        assert len(bad.violations) == 1
        assert "outofrange" in bad.violations[0]
        good = report.cell("429.mcf", "lru")
        assert good.status == "ok"

    def test_strict_mode_fails_cell_with_typed_error(self, tmp_path):
        report = self._sweep(["lru", OutOfRangePolicy(good=5)], "strict", tmp_path)
        bad = report.cell("429.mcf", "outofrange")
        assert not bad.ok
        assert bad.status == "failed"
        assert "PolicyContractError" in bad.error
        assert "outofrange" in bad.error
        # The well-behaved policy's cell is untouched.
        assert report.cell("429.mcf", "lru").ok

    def test_off_and_normal_reports_are_byte_identical_without_violations(
        self, tmp_path
    ):
        policies = ["lru", "srrip", "ship++"]
        off = self._sweep(policies, "off", tmp_path)
        normal = self._sweep(policies, "normal", tmp_path)
        assert cell_rows(off) == cell_rows(normal)

    def test_degraded_cells_round_trip_through_the_journal(self):
        from repro.eval.parallel import (
            CellResult,
            cell_from_journal_entry,
            journal_cell_entry,
        )
        from repro.cpu.system import SystemResult

        result = SystemResult(
            trace_name="w", policy_name="p", ipc=[1.0], instructions=[100],
            llc_stats={}, demand_mpki=0.0, llc_demand_hit_rate=0.5,
            llc_hit_rate=0.5,
        )
        cell = CellResult(
            "w", "p", result=result,
            violations=("policy 'p': victim way 9 outside range(ways=4)",),
        )
        entry = journal_cell_entry(cell)
        assert entry["violations"]
        restored = cell_from_journal_entry(copy.deepcopy(entry))
        assert restored.violations == cell.violations
        assert restored.status == "degraded"
        # Cells without violations keep the pre-sanitizer journal shape.
        clean = journal_cell_entry(CellResult("w", "p", result=result))
        assert "violations" not in clean

    def test_degradation_counts_into_telemetry(self):
        from repro.eval.parallel import CellResult
        from repro.cpu.system import SystemResult
        from repro.telemetry.instruments import cell_snapshot

        result = SystemResult(
            trace_name="w", policy_name="p", ipc=[1.0], instructions=[100],
            llc_stats={}, demand_mpki=0.0, llc_demand_hit_rate=0.5,
            llc_hit_rate=0.5,
        )
        snapshot = cell_snapshot(
            CellResult("w", "p", result=result, violations=("v1", "v2"))
        )
        counters = snapshot["counters"]
        assert any("cells_degraded" in key for key in counters)
        clean = cell_snapshot(CellResult("w", "p", result=result))
        assert not any("cells_degraded" in key for key in clean["counters"])


class TestConcurrentDegradation:
    def test_degraded_hooks_are_noops_after_the_flip(self):
        class CountingOutOfRange(OutOfRangePolicy):
            """Counts every hook call the cache makes."""

            def __init__(self):
                super().__init__(good=2)
                self.calls = 0

            def on_hit(self, *args):
                self.calls += 1

            def on_miss(self, *args):
                self.calls += 1

            def on_evict(self, *args):
                self.calls += 1

            def on_fill(self, *args):
                self.calls += 1

            def victim(self, set_index, cache_set, access):
                self.calls += 1
                way = super().victim(set_index, cache_set, access)
                if way not in range(cache_set.ways):
                    self.calls_at_violation = self.calls
                return way

        policy = CountingOutOfRange()
        cache = _cache(policy, "normal")
        for line in list(range(32)) * 3:  # hits, misses and evictions
            cache.access(load(line))
        assert len(cache.violations) == 1
        # The violating victim call was the last call the policy saw: not
        # even that miss's on_evict/on_fill reached it.
        assert policy.calls == policy.calls_at_violation
