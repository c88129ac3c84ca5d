"""Tests for Belady-agreement grading."""

import pytest

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import make_policy
from repro.cache.replacement.belady import BeladyPolicy
from repro.eval.agreement import (
    AgreementProfile,
    OracleProbePolicy,
    belady_agreement,
    compare_agreement,
)
from repro.eval.workloads import EvalConfig
from repro.traces.oracle import NextUseOracle

from tests.conftest import load


@pytest.fixture(scope="module")
def eval_config():
    return EvalConfig(scale=64, trace_length=5000, seed=3)


class TestProfile:
    def test_rates(self):
        profile = AgreementProfile(decisions=10, optimal=6, harmful=1, neutral=3)
        assert profile.optimal_rate == pytest.approx(0.6)
        assert profile.harmful_rate == pytest.approx(0.1)

    def test_empty_profile(self):
        assert AgreementProfile().optimal_rate == 0.0


class TestProbe:
    def test_belady_is_always_optimal(self):
        config = CacheConfig("c", 1 * 2 * 64, 2, latency=1)
        lines = [0, 1, 2, 0, 1, 2, 0, 3, 1, 0]
        inner = BeladyPolicy(list(lines))
        probe = OracleProbePolicy(inner, NextUseOracle(list(lines)))
        probe.bind(config)
        cache = Cache(config, probe)
        for line in lines:
            cache.access(load(line))
        assert probe.profile.decisions > 0
        assert probe.profile.optimal_rate == 1.0
        assert probe.profile.harmful == 0

    def test_probe_forwards_inner_behaviour(self):
        # The probed policy's decisions must be unchanged by probing.
        config = CacheConfig("c", 2 * 4 * 64, 4, latency=1)
        lines = [i % 11 for i in range(300)]

        def run(policy):
            policy.bind(config)
            cache = Cache(config, policy)
            for line in lines:
                cache.access(load(line))
            return cache.stats.hit_rate

        plain = run(make_policy("mru"))
        probed_policy = OracleProbePolicy(make_policy("mru"),
                                          NextUseOracle(lines))
        probed = run(probed_policy)
        assert plain == probed


class TestWorkloadAgreement:
    def test_profiles_ordered_sensibly(self, eval_config):
        profiles = compare_agreement(
            eval_config, "471.omnetpp", ["lru", "rlr_unopt", "random"]
        )
        for profile in profiles.values():
            assert profile.decisions > 0
            assert 0.0 <= profile.optimal_rate <= 1.0
        # Nothing should be worse than random at picking OPT victims by a
        # wide margin... but LRU legitimately can be; just check bounds
        # and that results differ across policies.
        rates = {name: p.optimal_rate for name, p in profiles.items()}
        assert len(set(round(r, 6) for r in rates.values())) > 1

    def test_belady_agreement_of_rlr(self, eval_config):
        profile = belady_agreement(eval_config, "450.soplex", "rlr")
        assert profile.decisions > 100
        assert profile.optimal_rate > 0.0
