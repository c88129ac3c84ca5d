"""Prepared-workload disk cache: key correctness and corruption recovery."""

from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

import repro.eval.runner as runner_module
from repro.eval.parallel import parallel_sweep
from repro.eval.prep_cache import (
    PrepCache,
    attach_prep_cache,
    workload_cache_key,
)
from repro.eval.runner import prepare_workload, run_workload
from repro.eval.workloads import EvalConfig
from repro.traces.record import Trace, TraceRecord

from tests.conftest import cell_rows


def _config(**overrides) -> EvalConfig:
    parameters = dict(scale=64, trace_length=1500, seed=3)
    parameters.update(overrides)
    return EvalConfig(**parameters)


@pytest.fixture()
def trace():
    return _config().trace("429.mcf")


class TestCacheKey:
    def test_same_inputs_same_key(self, trace):
        key_a = workload_cache_key(_config(), trace)
        key_b = workload_cache_key(_config(), trace)
        assert key_a == key_b

    def test_perturbations_change_the_key(self, trace):
        base = workload_cache_key(_config(), trace)

        # Trace contents: flip one record's address.
        first = trace.records[0]
        mutated = Trace(
            trace.name,
            [TraceRecord(address=first.address ^ (1 << 20), pc=first.pc,
                         access_type=first.access_type,
                         instr_delta=first.instr_delta, core=first.core)]
            + trace.records[1:],
        )

        def with_instr_delta(instr_delta):
            records = list(trace.records)
            records[300] = replace(records[300], instr_delta=instr_delta)
            return Trace(trace.name, records)

        perturbed = {
            "trace contents": workload_cache_key(_config(), mutated),
            # Pass 1 counts these instructions, so a wider gap must not
            # share a key with a 16-bit one.
            "instr_delta at 0xFFFF": workload_cache_key(
                _config(), with_instr_delta(0xFFFF)
            ),
            "instr_delta above 0xFFFF": workload_cache_key(
                _config(), with_instr_delta(70_000)
            ),
            "warmup fraction": workload_cache_key(
                _config(warmup_fraction=0.3), trace
            ),
            "associativity": workload_cache_key(_config(llc_ways=8), trace),
            "prefetcher": workload_cache_key(
                _config(), trace, l2_prefetcher="ip_stride"
            ),
            "core count": workload_cache_key(_config(), trace, num_cores=2),
        }
        for what, key in perturbed.items():
            assert key != base, what
        assert len(set(perturbed.values())) == len(perturbed)

    def test_key_is_stable_hex(self, trace):
        key = workload_cache_key(_config(), trace)
        assert len(key) == 64
        int(key, 16)


class TestRoundTrip:
    def test_store_then_load(self, tmp_path, trace):
        config = _config()
        prepared = prepare_workload(config, trace)
        cache = PrepCache(tmp_path)
        key = workload_cache_key(config, trace)
        assert cache.load(key) is None
        cache.store(key, prepared)
        loaded = cache.load(key)
        assert loaded == prepared
        assert cache.hits == 1 and cache.misses == 1

    def test_different_key_misses(self, tmp_path, trace):
        config = _config()
        cache = PrepCache(tmp_path)
        key = workload_cache_key(config, trace)
        cache.store(key, prepare_workload(config, trace))
        other = workload_cache_key(_config(warmup_fraction=0.3), trace)
        assert cache.load(other) is None


class TestCorruption:
    def _warm(self, tmp_path, config, trace):
        cache = PrepCache(tmp_path)
        key = workload_cache_key(config, trace)
        cache.store(key, prepare_workload(config, trace))
        return cache, key

    def test_truncated_pickle_is_a_counted_loud_miss(self, tmp_path, trace):
        from repro.eval.prep_cache import PrepCacheCorruptionWarning

        cache, key = self._warm(tmp_path, _config(), trace)
        path = cache.path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.warns(PrepCacheCorruptionWarning, match=key[:16]):
            assert cache.load(key) is None
        assert cache.corrupt == 1
        assert cache.misses == 1

    def test_garbage_bytes_are_a_counted_loud_miss(self, tmp_path, trace):
        from repro.eval.prep_cache import PrepCacheCorruptionWarning

        cache, key = self._warm(tmp_path, _config(), trace)
        cache.path(key).write_bytes(b"not a pickle at all")
        with pytest.warns(PrepCacheCorruptionWarning):
            assert cache.load(key) is None
        assert cache.corrupt == 1

    def test_wrong_payload_shape_is_a_miss(self, tmp_path, trace):
        import pickle

        cache, key = self._warm(tmp_path, _config(), trace)
        cache.path(key).write_bytes(pickle.dumps({"version": 999, "key": key}))
        # A stale FORMAT_VERSION is expected after upgrades: a SILENT miss,
        # not corruption.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(key) is None
        assert cache.corrupt == 0

    def test_key_mismatch_is_corruption(self, tmp_path, trace):
        import pickle

        from repro.eval.prep_cache import FORMAT_VERSION, PrepCacheCorruptionWarning

        cache, key = self._warm(tmp_path, _config(), trace)
        cache.path(key).write_bytes(
            pickle.dumps({"version": FORMAT_VERSION, "key": "someone-else",
                          "prepared": None})
        )
        with pytest.warns(PrepCacheCorruptionWarning):
            assert cache.load(key) is None
        assert cache.corrupt == 1

    def test_plain_miss_is_silent_and_uncounted(self, tmp_path, trace):
        cache = PrepCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(workload_cache_key(_config(), trace)) is None
        assert cache.corrupt == 0
        assert cache.misses == 1

    def test_corrupt_entry_is_resimulated_by_the_sweep(self, tmp_path):
        """A truncated cache file silently falls back to re-simulation."""
        reference = parallel_sweep(
            _config(), ["429.mcf"], ["lru", "srrip"], jobs=1
        )
        cache_dir = tmp_path / "prep"
        warm = parallel_sweep(
            _config(), ["429.mcf"], ["lru", "srrip"], jobs=1,
            cache_dir=cache_dir,
        )
        assert cell_rows(warm) == cell_rows(reference)
        entries = list(cache_dir.glob("*.pkl"))
        assert len(entries) == 1
        data = entries[0].read_bytes()
        entries[0].write_bytes(data[: len(data) // 3])
        repaired = parallel_sweep(
            _config(), ["429.mcf"], ["lru", "srrip"], jobs=1,
            cache_dir=cache_dir,
        )
        assert repaired.cached_workloads == ()  # miss -> re-simulated
        assert cell_rows(repaired) == cell_rows(reference)
        # The poisoned entry was quarantined (evidence kept), not deleted.
        quarantined = list((cache_dir / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert quarantined[0].name.endswith(".corrupt")
        # The entry was rewritten and is healthy again.
        rewarmed = parallel_sweep(
            _config(), ["429.mcf"], ["lru", "srrip"], jobs=1,
            cache_dir=cache_dir,
        )
        assert rewarmed.cached_workloads == ("429.mcf",)


class TestRunnerIntegration:
    def test_attached_cache_serves_runner_entry_points(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real_prepare = runner_module.prepare_workload

        def counting(*args, **kwargs):
            calls.append(args)
            return real_prepare(*args, **kwargs)

        monkeypatch.setattr(runner_module, "prepare_workload", counting)

        config = _config()
        attach_prep_cache(config, tmp_path)
        trace = config.trace("429.mcf")
        first = run_workload(config, trace, "lru")
        assert len(calls) == 1

        # A brand-new EvalConfig (empty in-memory cache) over the same
        # directory prepares nothing.
        fresh = _config()
        attach_prep_cache(fresh, tmp_path)
        second = run_workload(fresh, fresh.trace("429.mcf"), "lru")
        assert len(calls) == 1
        assert second.llc_hit_rate == first.llc_hit_rate
        assert second.ipc == first.ipc
