"""`repro bench` smoke: tiny specs, real engines, committed-file shape."""

import json

import pytest

import repro.eval.bench as bench_mod


@pytest.fixture()
def tiny_specs(monkeypatch):
    monkeypatch.setattr(bench_mod, "OBJCACHE_BENCH", {
        "objects": 100,
        "length": 800,
        "seed": 7,
        "alpha": 1.0,
        "capacity_bytes": 200_000,
        "policies": ("lru", "gdsf"),
    })
    monkeypatch.setattr(bench_mod, "REPLAY_BENCH", {
        "workload": "473.astar",
        "scale": 16,
        "trace_length": 1500,
        "seed": 7,
        "policies": ("lru",),
    })


class TestObjcacheBench:
    def test_payload_shape_and_rates(self, tiny_specs):
        payload = bench_mod.bench_objcache()
        assert payload["bench"] == "objcache"
        assert payload["unit"] == "accesses/sec"
        assert payload["requests"] == 800
        assert set(payload["rates"]) == {"lru", "gdsf"}
        assert all(rate > 0 for rate in payload["rates"].values())
        assert "python" in payload["environment"]

    def test_write_bench_round_trips_json(self, tiny_specs, tmp_path):
        payload, path = bench_mod.write_bench("objcache",
                                              output_dir=tmp_path)
        assert path.name == "BENCH_objcache.json"
        assert json.loads(path.read_text()) == payload


class TestReplayBench:
    def test_payload_shape_and_rates(self, tiny_specs):
        payload = bench_mod.bench_replay()
        assert payload["bench"] == "replay"
        assert payload["llc_records"] > 0
        assert payload["rates"]["lru"] > 0

    def test_write_bench_targets_the_committed_filename(
        self, tiny_specs, tmp_path
    ):
        _, path = bench_mod.write_bench("replay", output_dir=tmp_path)
        assert path.name == "BENCH_replay.json"


class TestRegistry:
    def test_benches_map_names_to_committed_files(self):
        assert set(bench_mod.BENCHES) == {"objcache", "replay"}
        for run, filename in bench_mod.BENCHES.values():
            assert callable(run)
            assert filename.startswith("BENCH_")
