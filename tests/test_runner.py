"""Tests for the evaluation runner — above all, replay == full-system."""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache.config import CacheConfig, CoreConfig
from repro.cpu.system import System
from repro.eval.runner import (
    PreparedWorkload,
    compare_policies,
    prepare_workload,
    replay,
    run_belady,
    run_workload,
)
from repro.eval.workloads import EvalConfig
from repro.traces.record import (
    COLUMN_MAX,
    OFFSET_BITS,
    AccessType,
    Trace,
    TraceRecord,
)
from repro.traces.spec_models import build_trace, get_workload


@pytest.fixture(scope="module")
def eval_config():
    return EvalConfig(scale=64, trace_length=4000, seed=3)


@pytest.fixture(scope="module")
def trace(eval_config):
    return eval_config.trace("471.omnetpp")


class TestReplayEquivalence:
    """Replay must be bit-identical to a full-system simulation."""

    @pytest.mark.parametrize("policy", ["lru", "drrip", "ship", "rlr", "hawkeye"])
    def test_ipc_and_stats_match_full_system(self, eval_config, trace, policy):
        fast = run_workload(eval_config, trace, policy)
        system = System(
            hierarchy_config=eval_config.hierarchy(num_cores=1),
            llc_policy=__import__("repro.cache.replacement", fromlist=["make_policy"]).make_policy(policy),
        )
        slow = system.run(trace, warmup_fraction=eval_config.warmup_fraction)
        assert fast.single_ipc == pytest.approx(slow.single_ipc, rel=1e-12)
        assert fast.llc_stats["hits"] == slow.llc_stats["hits"]
        assert fast.llc_stats["misses"] == slow.llc_stats["misses"]
        assert fast.demand_mpki == pytest.approx(slow.demand_mpki)


class TestPreparedWorkload:
    def test_preparation_is_cached(self, eval_config, trace):
        from repro.eval.runner import _prepared

        first = _prepared(eval_config, trace, 1, None)
        second = _prepared(eval_config, trace, 1, None)
        assert first is second

    def test_warmup_index_within_stream(self, eval_config, trace):
        prepared = prepare_workload(eval_config, trace)
        assert 0 < prepared.warmup_index < len(prepared.llc_records)

    def test_base_cycles_positive(self, eval_config, trace):
        prepared = prepare_workload(eval_config, trace)
        assert prepared.base_cycles[0] > 0
        assert prepared.instructions[0] > 0

    def test_stall_ordering(self, eval_config, trace):
        prepared = prepare_workload(eval_config, trace)
        assert prepared.stall_mem > prepared.stall_llc > 0


#: Records at the edges every pickled stream must carry: each access type,
#: instr_delta 0 and above 16 bits, cores 0-3, and the largest address, pc
#: and instr_delta the trace loaders accept.
_EDGE_RECORDS = [
    TraceRecord(COLUMN_MAX["address"], COLUMN_MAX["pc"], AccessType.LOAD,
                0, 0),
    TraceRecord(0, 0, AccessType.RFO, 0x10000, 1),
    TraceRecord(64, 4, AccessType.PREFETCH, COLUMN_MAX["instr_delta"], 2),
    TraceRecord(COLUMN_MAX["address"] - 63, 8, AccessType.WRITEBACK, 1, 3),
]

_stream_records = st.lists(st.builds(
    TraceRecord,
    address=st.integers(0, COLUMN_MAX["address"]),
    pc=st.integers(0, COLUMN_MAX["pc"]),
    access_type=st.sampled_from(list(AccessType)),
    instr_delta=st.integers(0, COLUMN_MAX["instr_delta"]),
    core=st.integers(0, 3),
), max_size=40)


class TestPickledStream:
    """``PreparedWorkload`` pickles its stream as columns, losslessly."""

    @settings(max_examples=40, deadline=None)
    @given(drawn=_stream_records, warmup=st.integers(0, 44))
    def test_round_trip_keeps_every_field(self, drawn, warmup):
        records = _EDGE_RECORDS + drawn
        prepared = PreparedWorkload(
            trace_name="edges",
            num_cores=4,
            llc_config=CacheConfig("llc", 16 * 64 * 4, 4, latency=26),
            llc_records=records,
            warmup_index=min(warmup, len(records)),
            base_cycles=[1.5, 2.0, 0.0, 3.25],
            instructions=[10, 0, 7, 2**40],
            stall_llc=26.0,
            stall_mem=226.0,
            hierarchy_stats={"llc": {"accesses": len(records)}},
            prepare_seconds=0.5,
        )
        loaded = pickle.loads(
            pickle.dumps(prepared, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert loaded == prepared
        assert loaded.prepare_seconds == prepared.prepare_seconds
        assert len(loaded.llc_records) == len(records)
        for got, want in zip(loaded.llc_records, records):
            assert (got.address, got.pc, got.access_type, got.instr_delta,
                    got.core) == (want.address, want.pc, want.access_type,
                                  want.instr_delta, want.core)
            assert type(got.access_type) is AccessType
            assert got.line_address == got.address >> OFFSET_BITS
        # Pickling reads the artifact; it must not rewrite it.
        assert prepared.llc_records == records


class TestBelady:
    def test_belady_dominates_total_hit_rate(self, eval_config, trace):
        results = compare_policies(
            eval_config,
            trace,
            ["lru", "drrip", "ship", "rlr"],
            include_belady=True,
        )
        belady_rate = results["belady"].llc_hit_rate
        for name, result in results.items():
            assert belady_rate >= result.llc_hit_rate - 1e-9, name

    def test_run_belady_equals_compare_entry(self, eval_config, trace):
        direct = run_belady(eval_config, trace)
        via_compare = compare_policies(
            eval_config, trace, [], include_belady=True
        )["belady"]
        assert direct.llc_hit_rate == via_compare.llc_hit_rate


class TestOptionalDefaults:
    """Regression: ``None`` defaults are Optional and normalized once."""

    def test_explicit_none_equals_omitted(self, eval_config, trace):
        omitted = prepare_workload(eval_config, trace)
        explicit = prepare_workload(
            eval_config, trace, l2_prefetcher=None, core_config=None
        )
        assert explicit == omitted

    def test_core_config_normalized_in_one_place(self):
        from repro.eval.runner import _core_config

        assert _core_config(None) == CoreConfig()
        custom = CoreConfig(issue_width=4)
        assert _core_config(custom) is custom

    def test_replay_none_arguments_equal_omitted(self, eval_config, trace):
        prepared = prepare_workload(eval_config, trace)
        omitted = replay(prepared, "lru")
        explicit = replay(prepared, "lru", detailed=None, observers=None)
        assert explicit.llc_stats == omitted.llc_stats
        assert explicit.ipc == omitted.ipc


class TestMulticoreRunner:
    def test_mix_replay_matches_full_system(self):
        eval_config = EvalConfig(scale=64, trace_length=3000, seed=5)
        mix = ("429.mcf", "470.lbm", "403.gcc", "483.xalancbmk")
        trace = eval_config.mix_trace(mix)
        fast = run_workload(eval_config, trace, "lru", num_cores=4)
        from repro.cache.replacement import make_policy

        system = System(
            hierarchy_config=eval_config.hierarchy(num_cores=4),
            llc_policy=make_policy("lru"),
        )
        slow = system.run(trace, warmup_fraction=eval_config.warmup_fraction)
        for fast_ipc, slow_ipc in zip(fast.ipc, slow.ipc):
            assert fast_ipc == pytest.approx(slow_ipc, rel=1e-12)

    def test_multicore_rlr_gets_core_wiring(self):
        eval_config = EvalConfig(scale=64, trace_length=2000, seed=5)
        mix = ("429.mcf", "470.lbm", "403.gcc", "483.xalancbmk")
        trace = eval_config.mix_trace(mix)
        prepared = prepare_workload(eval_config, trace, num_cores=4)
        from repro.eval.runner import _instantiate

        policy = _instantiate("rlr", 4)
        assert policy.num_cores == 4


def _artifact_digest(prepared) -> str:
    """SHA-256 of everything pass 1 hands to replay and to the reports."""
    import hashlib
    import json

    stats = prepared.hierarchy_stats
    payload = {
        "stream": [
            (record.address, record.pc, int(record.access_type),
             record.instr_delta, record.core)
            for record in prepared.llc_records
        ],
        "warmup_index": prepared.warmup_index,
        "base_cycles": prepared.base_cycles,
        "instructions": prepared.instructions,
        "stalls": [prepared.stall_llc, prepared.stall_mem],
        "l1": stats["l1"],
        "l2": stats["l2"],
        "llc_accesses": stats["llc"]["accesses"],
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


#: Pass-1 artifact digests recorded with a full-hierarchy pass 1 (an LRU
#: LLC, and L1/L2 as ``Cache``s under ``LRUPolicy``): the recording
#: hierarchy must reproduce that artifact exactly.
PASS1_DIGESTS = {
    ("429.mcf", None):
        "22ae3be931cdd9a7f131a59bcabb1416d7ff657224a4966dc0a2eff0bf14ad96",
    ("429.mcf", "none"):
        "22ae3be931cdd9a7f131a59bcabb1416d7ff657224a4966dc0a2eff0bf14ad96",
    ("429.mcf", "kpc_p"):
        "d0c2df7030525964c1eb8b8f06cbf67051ee8450642866fd8817bf8d6704fafa",
    ("473.astar", None):
        "345d73ba40fbc64613fdd0c44d8b3bde779e621e4d42c0359668427fc549ab5c",
    ("473.astar", "none"):
        "66b99746029856ad15c9ee33f590b2814d8391adb52889c9a3c71850812c1e5d",
    ("473.astar", "kpc_p"):
        "81b963b7dc5839acbe56cab3a0335115410155fe7b2b1b5cd3701f7cc82099ab",
    ("mix", None):
        "7439138a6c0da2f6fee7149101bf5478bb82f94345fbf783695e3911cd09b0c1",
}


class TestPass1ArtifactDigests:
    @pytest.fixture(scope="class")
    def digest_config(self):
        return EvalConfig(scale=64, trace_length=5000, seed=3)

    @pytest.mark.parametrize("workload,l2_prefetcher", [
        key for key in PASS1_DIGESTS if key[0] != "mix"
    ])
    def test_single_core_artifact_is_pinned(self, digest_config, workload,
                                            l2_prefetcher):
        prepared = prepare_workload(digest_config,
                                    digest_config.trace(workload),
                                    l2_prefetcher=l2_prefetcher)
        assert (_artifact_digest(prepared)
                == PASS1_DIGESTS[(workload, l2_prefetcher)])

    def test_mix_artifact_is_pinned(self):
        eval_config = EvalConfig(scale=64, trace_length=2000, seed=5)
        trace = eval_config.mix_trace(
            ("429.mcf", "470.lbm", "403.gcc", "483.xalancbmk"))
        prepared = prepare_workload(eval_config, trace, num_cores=4)
        assert _artifact_digest(prepared) == PASS1_DIGESTS[("mix", None)]
