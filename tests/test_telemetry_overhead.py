"""Disabled-path overhead guards: telemetry off must be (nearly) free.

The acceptance bound is <2% overhead on the hot loops with telemetry
disabled.  Rather than race two wall-clock measurements (flaky under CI
load), these tests prove the property the implementation is built on —
the disabled path executes the *identical* hot-loop code — and then bound
the cost of the only thing that remains: one ``span()`` call per loop, not
per iteration.
"""

import time
import timeit

from repro import telemetry
from repro.eval.runner import prepare_workload, replay
from repro.eval.workloads import EvalConfig
from repro.telemetry.registry import NULL_REGISTRY
from repro.telemetry.spans import NULL_SPAN


class TestDisabledPathIsStructurallyFree:
    def test_span_is_shared_null_object(self):
        assert telemetry.span("replay", workload="w") is NULL_SPAN
        assert telemetry.span("other") is NULL_SPAN

    def test_registry_is_shared_null_object(self):
        assert telemetry.get_registry() is NULL_REGISTRY
        # Instrument calls allocate nothing and mutate nothing.
        counter = telemetry.get_registry().counter("x", label="y")
        counter.inc(10 ** 9)
        assert telemetry.get_registry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


class TestDisabledOverheadBound:
    def test_hook_cost_under_two_percent_of_replay(self):
        """The per-loop hook cost is <2% of one (tiny) replay.

        ``replay`` makes exactly one ``span()`` call per invocation.  Bound
        its cost against the smallest realistic unit of work the sweep
        engine ever schedules; on real workloads (thousands of times
        larger) the ratio only shrinks.
        """
        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("429.mcf"))

        started = time.perf_counter()
        repeats = 5
        for _ in range(repeats):
            replay(prepared, "lru")
        replay_seconds = (time.perf_counter() - started) / repeats

        calls = 2000
        hook_seconds = timeit.timeit(
            lambda: telemetry.span("replay", workload="w"), number=calls,
        ) / calls

        assert hook_seconds < 0.02 * replay_seconds, (
            f"disabled telemetry hooks cost {hook_seconds * 1e6:.2f}us per "
            f"loop vs replay {replay_seconds * 1e3:.2f}ms"
        )

    def test_replay_identical_with_and_without_telemetry_module_state(self):
        """Results are bit-identical whether telemetry was ever enabled."""
        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("470.lbm"))
        baseline = replay(prepared, "lru")

        telemetry.configure(registry=telemetry.MetricsRegistry())
        try:
            instrumented = replay(prepared, "lru")
        finally:
            telemetry.shutdown()
        after = replay(prepared, "lru")

        assert instrumented == baseline
        assert after == baseline


class TestDecisionTracingDisabledPath:
    """Decision tracing off must be as free as telemetry off."""

    def test_untraced_cache_has_no_decision_observers(self):
        """The only disabled-path residue is one empty-list ``for`` per
        eviction."""
        from repro.cache import Cache, CacheConfig
        from repro.cache.replacement import make_policy

        config = CacheConfig("c", 4 * 4 * 64, 4, latency=1)
        policy = make_policy("lru")
        policy.bind(config)
        cache = Cache(config, policy)
        assert cache.decision_observers == []

    def test_untraced_replay_leaves_no_active_trace(self):
        from repro.telemetry.decisions import active_trace

        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("429.mcf"))
        assert active_trace() is None
        replay(prepared, "lru")
        assert active_trace() is None

    def test_replay_identical_with_and_without_decision_tracing(self):
        """A traced replay returns bit-identical results, and the trace
        leaves no residue on subsequent untraced replays."""
        from repro.traces.oracle import NextUseOracle
        from repro.telemetry.decisions import DecisionTrace

        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("429.mcf"))
        baseline = replay(prepared, "lru")
        decisions = DecisionTrace(
            workload="429.mcf",
            oracle=NextUseOracle(prepared.llc_line_stream),
        )
        traced = replay(prepared, "lru", decisions=decisions)
        after = replay(prepared, "lru")

        assert traced == baseline
        assert after == baseline
        assert decisions.evictions > 0

    def test_disabled_observer_loop_under_two_percent_of_replay(self):
        """Bound the one remaining disabled-path cost: iterating the empty
        ``decision_observers`` list once per eviction."""
        from repro.cache import Cache
        from repro.cache.replacement import make_policy

        eval_config = EvalConfig(scale=64, trace_length=1500, seed=7)
        prepared = prepare_workload(eval_config, eval_config.trace("429.mcf"))

        started = time.perf_counter()
        repeats = 5
        for _ in range(repeats):
            result = replay(prepared, "lru")
        replay_seconds = (time.perf_counter() - started) / repeats

        # Time the statement the cache runs per eviction, on an untraced
        # cache's own (empty) list.
        evictions = result.llc_stats["evictions"]
        cache = Cache(prepared.llc_config, make_policy("lru"))
        loop_seconds = timeit.timeit(
            "for callback in cache.decision_observers: pass",
            globals={"cache": cache},
            number=max(evictions, 1),
        )

        assert loop_seconds < 0.02 * replay_seconds, (
            f"empty decision-observer loops cost {loop_seconds * 1e6:.2f}us "
            f"per replay vs replay {replay_seconds * 1e3:.2f}ms"
        )
