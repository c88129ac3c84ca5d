"""The deterministic fault-injection harness (repro.testing.faults)."""

from __future__ import annotations

import os

import pytest

from repro.eval.prep_cache import (
    PrepCache,
    PrepCacheCorruptionWarning,
    workload_cache_key,
)
from repro.eval.runner import prepare_workload
from repro.eval.workloads import EvalConfig
from repro.testing.faults import (
    ENV_SPECS,
    ENV_STATE,
    FaultSpec,
    InjectedFault,
    clear_faults,
    injected_faults,
    install_faults,
    maybe_fault,
)


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    yield
    clear_faults()


class TestSpecs:
    def test_round_trip(self):
        spec = FaultSpec(
            site="replay", action="hang", match={"policy": "lru"},
            after=2, times=3, hang_seconds=9.0, exit_code=11,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_action_rejected(self):
        for action in ("explode", "slow:20"):
            with pytest.raises(ValueError, match="unknown fault action"):
                FaultSpec.from_dict({"site": "replay", "action": action})


class TestTriggering:
    def test_noop_without_installation(self):
        maybe_fault("replay", workload="w", policy="p")  # must not raise

    def test_error_action_fires_in_its_window(self, tmp_path):
        spec = FaultSpec(site="replay", action="error", after=1, times=2)
        install_faults([spec], tmp_path)
        maybe_fault("replay")  # call 1: before the window
        with pytest.raises(InjectedFault):
            maybe_fault("replay")  # call 2
        with pytest.raises(InjectedFault):
            maybe_fault("replay")  # call 3
        maybe_fault("replay")  # call 4: window exhausted

    def test_match_filters_by_identity(self, tmp_path):
        spec = FaultSpec(
            site="replay", action="error", match={"policy": "lru"}
        )
        install_faults([spec], tmp_path)
        maybe_fault("replay", policy="drrip")  # no match, no count
        with pytest.raises(InjectedFault):
            maybe_fault("replay", policy="lru")

    def test_site_filters(self, tmp_path):
        install_faults([FaultSpec(site="prepare", action="error")], tmp_path)
        maybe_fault("replay")  # different site
        with pytest.raises(InjectedFault):
            maybe_fault("prepare")

    def test_counter_is_shared_across_processes(self, tmp_path):
        """The call counter lives on disk, so forked workers share it."""
        spec = FaultSpec(site="replay", action="error", after=1, times=1)
        install_faults([spec], tmp_path)
        maybe_fault("replay")  # consumes call 1 in "this process"
        # A "different process" (same env) sees the global count and fires.
        with pytest.raises(InjectedFault):
            maybe_fault("replay")

    def test_corrupt_action_truncates_the_named_file(self, tmp_path):
        victim = tmp_path / "entry.pkl"
        victim.write_bytes(b"x" * 100)
        install_faults(
            [FaultSpec(site="prep-cache", action="corrupt")], tmp_path / "state"
        )
        maybe_fault("prep-cache", key="k", path=str(victim))
        assert victim.stat().st_size == 50

    def test_scoped_injection_restores_the_environment(self, tmp_path):
        assert ENV_SPECS not in os.environ
        with injected_faults(
            [FaultSpec(site="replay", action="error")], tmp_path
        ):
            assert ENV_SPECS in os.environ and ENV_STATE in os.environ
        assert ENV_SPECS not in os.environ
        assert ENV_STATE not in os.environ

    def test_malformed_env_never_breaks_production_code(self, tmp_path):
        os.environ[ENV_SPECS] = "{not json"
        os.environ[ENV_STATE] = str(tmp_path)
        maybe_fault("replay")  # must not raise


class TestPrepCacheFaultPath:
    """Corrupting a cache entry mid-read is survived, counted, and loud."""

    def test_injected_corruption_warns_and_falls_back(self, tmp_path):
        config = EvalConfig(scale=64, trace_length=1500, seed=3)
        trace = config.trace("429.mcf")
        cache = PrepCache(tmp_path / "prep")
        key = workload_cache_key(config, trace)
        cache.store(key, prepare_workload(config, trace))
        assert cache.load(key) is not None  # healthy entry

        with injected_faults(
            [FaultSpec(site="prep-cache", action="corrupt")],
            tmp_path / "state",
        ):
            with pytest.warns(PrepCacheCorruptionWarning, match=key[:16]):
                assert cache.load(key) is None  # torn just before the read
        assert cache.corrupt == 1

        # Re-simulation and re-store heal the entry.
        cache.store(key, prepare_workload(config, trace))
        assert cache.load(key) is not None


class TestActionParsing:
    """parse_action: the grammar behind torn_write:<n> and friends."""

    def test_plain_actions_have_no_duration(self):
        from repro.testing.faults import parse_action

        assert parse_action("error") == ("error", None)
        assert parse_action("hang") == ("hang", None)

    def test_byte_faults_require_a_byte_suffix(self):
        from repro.testing.faults import parse_action

        assert parse_action("torn_write:250") == ("torn_write", 250)
        assert parse_action("bit_flip:0") == ("bit_flip", 0)
        assert parse_action("crash_at_byte:17") == ("crash_at_byte", 17)

    @pytest.mark.parametrize("action", [
        "slow", "torn_write", "torn_write:abc", "torn_write:-5", "error:10",
        "crash:1",
    ])
    def test_malformed_actions_rejected(self, action):
        from repro.testing.faults import parse_action

        with pytest.raises(ValueError):
            parse_action(action)

    def test_new_actions_round_trip_through_dicts(self):
        for action in ("torn_write:30", "crash_at_byte:0"):
            spec = FaultSpec(site="atomic-write", action=action,
                             match={"path": "p"}, after=2, times=3)
            assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_validates_the_action_grammar(self):
        with pytest.raises(ValueError):
            FaultSpec.from_dict({"site": "atomic-write",
                                 "action": "torn_write:x"})


class TestReturnedAction:
    """maybe_fault returns what fired so the caller can interpret it."""

    def test_returns_none_when_nothing_fires(self):
        assert maybe_fault("replay") is None

    def test_returns_the_action_string(self, tmp_path):
        install_faults(
            [FaultSpec(site="atomic-write", action="torn_write:7")], tmp_path
        )
        assert maybe_fault("atomic-write") == "torn_write:7"
