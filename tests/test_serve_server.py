"""The policy server: dispatch, dedup, deadlines, degradation, drain."""

from __future__ import annotations

import pytest

from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.serve.client import PolicyClient
from repro.serve.server import ServeConfig, start_in_thread
from repro.serve.state import DEGRADED, HEALTHY
from repro.testing.faults import FaultSpec, clear_faults, injected_faults
from repro.traces.record import AccessType, TraceRecord


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    yield
    clear_faults()


def _record() -> TraceRecord:
    return TraceRecord(address=0x1000, pc=0x40,
                       access_type=AccessType.LOAD, core=0)


def _config() -> CacheConfig:
    return CacheConfig("llc", 64 * 1024, 16, 30)


def _full_set(ways: int = 16) -> CacheSet:
    cache_set = CacheSet(0, ways)
    for way in range(ways):  # way 0 is the LRU line
        cache_set.fill(way, 0x10 + way, 0x4000 + way, _record())
    return cache_set


def _victim_frame(tenant: str, request_id: str,
                  cache_set: CacheSet = None) -> dict:
    from repro.serve.protocol import victim_request

    return victim_request(tenant, request_id, 0,
                          cache_set or _full_set(), _record())


def _bound_client(handle, tenant: str, policy: str = "lru") -> PolicyClient:
    client = PolicyClient(handle.host, handle.port)
    reply = client.bind(tenant, policy, _config())
    assert reply is not None and reply["ok"]
    return client


class TestDispatch:
    def test_ping(self):
        with start_in_thread(ServeConfig()) as handle:
            client = PolicyClient(handle.host, handle.port)
            assert client.ping()["op"] == "pong"
            client.close()

    def test_victim_before_bind_is_an_error(self):
        with start_in_thread(ServeConfig()) as handle:
            client = PolicyClient(handle.host, handle.port)
            reply = client.request(_victim_frame("ghost", "ghost-1"))
            assert reply["ok"] is False
            assert "bind first" in reply["error"]
            client.close()

    def test_unknown_op_is_an_error_not_a_crash(self):
        with start_in_thread(ServeConfig()) as handle:
            client = PolicyClient(handle.host, handle.port)
            assert client.request({"op": "transmogrify"})["ok"] is False
            assert client.ping()["op"] == "pong"  # connection survived
            client.close()

    def test_rebind_with_different_policy_refused(self):
        with start_in_thread(ServeConfig()) as handle:
            client = _bound_client(handle, "t-dup", "lru")
            reply = client.request(
                {"op": "bind", "tenant": "t-dup", "policy": "srrip",
                 "config": {"name": "llc", "size_bytes": 64 * 1024,
                            "ways": 16, "latency": 30}}
            )
            assert reply["ok"] is False
            assert "already bound" in reply["error"]
            client.close()


class TestVictimPath:
    def test_healthy_decision_comes_from_the_policy(self):
        with start_in_thread(ServeConfig()) as handle:
            client = _bound_client(handle, "t-v")
            reply = client.request(_victim_frame("t-v", "t-v-1"))
            assert reply["ok"] and reply["source"] == "policy"
            assert reply["way"] == _full_set().lru_way()
            client.close()

    def test_idempotent_retransmit_returns_the_recorded_reply(self):
        with start_in_thread(ServeConfig()) as handle:
            client = _bound_client(handle, "t-dedup")
            first = client.request(_victim_frame("t-dedup", "t-dedup-1"))
            again = client.request(_victim_frame("t-dedup", "t-dedup-1"))
            assert first == again
            stats = client.stats("t-dedup")
            assert stats["tenant"]["requests"] == 1  # decided once
            client.close()

    def test_deadline_miss_serves_lru_fallback(self, tmp_path):
        spec = FaultSpec(site="serve.decide", action="hang_until_deadline",
                         match={"tenant": "t-slow"}, times=1)
        with start_in_thread(ServeConfig()) as handle:
            with injected_faults([spec], tmp_path):
                client = _bound_client(handle, "t-slow")
                reply = client.request(_victim_frame("t-slow", "t-slow-1"))
            assert reply["ok"]
            assert reply["source"] == "fallback"
            assert reply["reason"] == "deadline"
            assert reply["way"] == _full_set().lru_way()
            client.close()

    def test_miss_streak_degrades_then_probation_recovers(self, tmp_path):
        spec = FaultSpec(site="serve.decide", action="hang_until_deadline",
                         match={"tenant": "t-deg"}, times=3)
        config = ServeConfig(degrade_after=3, probation_ok=4)
        with start_in_thread(config) as handle:
            with injected_faults([spec], tmp_path):
                client = _bound_client(handle, "t-deg")
                for n in range(3):
                    client.request(_victim_frame("t-deg", f"t-deg-{n}"))
            assert client.stats("t-deg")["tenant"]["state"] == DEGRADED
            # Degraded requests still answer (from LRU) while shadowing.
            reply = client.request(_victim_frame("t-deg", "t-deg-s"))
            assert reply["source"] == "fallback"
            assert reply["reason"] == "degraded"
            for n in range(3):
                client.request(_victim_frame("t-deg", f"t-deg-p{n}"))
            assert client.stats("t-deg")["tenant"]["state"] == HEALTHY
            client.close()

    def test_injected_policy_error_degrades_but_answers(self, tmp_path):
        spec = FaultSpec(site="serve.decide", action="error",
                         match={"tenant": "t-err"}, times=1)
        with start_in_thread(ServeConfig()) as handle:
            with injected_faults([spec], tmp_path):
                client = _bound_client(handle, "t-err")
                reply = client.request(_victim_frame("t-err", "t-err-1"))
            assert reply["ok"]
            assert reply["source"] == "fallback"
            stats = client.stats("t-err")["tenant"]
            assert stats["state"] == DEGRADED
            assert stats["policy_errors"] == 1
            client.close()


class TestStatsAndHealth:
    def test_stats_lists_tenants_sorted(self):
        with start_in_thread(ServeConfig()) as handle:
            beta = _bound_client(handle, "t-b")
            alpha = _bound_client(handle, "t-a")
            names = [t["tenant"] for t in alpha.stats()["tenants"]]
            assert names == ["t-a", "t-b"]
            alpha.close()
            beta.close()

    def test_health_payload_reflects_shard_states(self):
        with start_in_thread(ServeConfig()) as handle:
            client = _bound_client(handle, "t-h")
            health = handle.server.health_payload()
            assert health["ok"] is True
            assert health["tenants"] == {"t-h": HEALTHY}
            client.close()


class TestDrain:
    def test_shutdown_op_drains_and_stops_accepting(self):
        handle = start_in_thread(ServeConfig())
        client = _bound_client(handle, "t-bye")
        assert client.shutdown()["op"] == "shutdown_ack"
        client.close()
        handle.stop()
        assert handle.server.draining

    def test_drain_writes_a_final_snapshot(self, tmp_path):
        config = ServeConfig(snapshot_dir=tmp_path)
        handle = start_in_thread(config)
        client = _bound_client(handle, "t-snap")
        client.request(_victim_frame("t-snap", "t-snap-1"))
        client.close()
        handle.stop()
        assert (tmp_path / "serve-snapshot.pkl").is_file()


class TestMicroBatching:
    def test_batch_size_histogram_is_recorded(self):
        from repro import telemetry

        telemetry.configure(registry=telemetry.MetricsRegistry())
        try:
            with start_in_thread(ServeConfig(max_batch=4)) as handle:
                client = _bound_client(handle, "t-batch")
                for n in range(6):
                    client.request(_victim_frame("t-batch", f"t-batch-{n}"))
                client.close()
            snapshot = telemetry.get_registry().snapshot()
            histograms = snapshot.get("histograms", {})
            assert any("serve.batch_size" in key for key in histograms)
        finally:
            telemetry.shutdown()
