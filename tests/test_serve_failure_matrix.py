"""The serving failure matrix: every fault answers, nothing crashes.

One test per row of the matrix in docs/serving.md: deadline miss,
mid-request server death, malformed frame, truncated frame, poisoned
reply, corrupt (truncated) reply frame, and restart-with-restore.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys

import pytest

from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.serve.client import PolicyClient, ServerBackedPolicy
from repro.serve.protocol import victim_request
from repro.serve.server import PolicyServer, ServeConfig, start_in_thread
from repro.serve.snapshot import (
    SnapshotError,
    load_server_snapshot,
    save_server_snapshot,
)
from repro.testing.faults import (
    ENV_SPECS,
    ENV_STATE,
    FaultSpec,
    clear_faults,
    injected_faults,
)
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


def _bound_client(handle, tenant: str, **options) -> PolicyClient:
    client = PolicyClient(handle.host, handle.port, **options)
    assert client.bind(tenant, "lru", _config())["ok"]
    return client


class TestDeadlineMiss:
    def test_blown_deadline_is_answered_from_fallback_and_counted(
        self, tmp_path
    ):
        spec = FaultSpec(site="serve.decide", action="hang_until_deadline",
                         match={"tenant": "t-dl"}, times=1)
        with start_in_thread(ServeConfig(deadline_us=500.0)) as handle:
            with injected_faults([spec], tmp_path):
                client = _bound_client(handle, "t-dl")
                reply = client.request(
                    victim_request("t-dl", "t-dl-1", 0, _full_set(),
                                   _record())
                )
            assert reply["ok"] and reply["reason"] == "deadline"
            stats = client.stats("t-dl")["tenant"]
            assert stats["deadline_misses"] == 1
            assert stats["fallbacks"] == 1
            client.close()


class TestMidRequestServerDeath:
    def test_client_survives_the_server_dying_mid_request(self, tmp_path):
        # A real subprocess server wired to crash (os._exit) on its first
        # victim decision: the hardest failure — the reply never comes.
        specs = [FaultSpec(site="serve.decide", action="crash",
                           exit_code=17).to_dict()]
        env = dict(os.environ)
        env[ENV_SPECS] = json.dumps(specs)
        env[ENV_STATE] = str(tmp_path / "state")
        (tmp_path / "state").mkdir()
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p]
        )
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving on" in banner
            port = int(banner.strip().rsplit(":", 1)[1])
            client = PolicyClient("127.0.0.1", port, timeout=2.0,
                                  retries=1, sleep=lambda _: None)
            assert client.bind("t-rip", "lru", _config())["ok"]
            reply = client.request(
                victim_request("t-rip", "t-rip-1", 0, _full_set(),
                               _record())
            )
            # The server died; request() absorbed it and reported failure.
            assert reply is None
            assert client.transport_failures >= 1
            assert proc.wait(timeout=10) == 17
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()

    def test_adapter_keeps_simulating_after_server_death(self, tmp_path):
        # Same row, one layer up: ServerBackedPolicy.victim must return a
        # valid LRU way even though the server is gone.
        policy = ServerBackedPolicy(
            "lru", "127.0.0.1", 1,
            client_options={"timeout": 0.05, "retries": 0,
                            "sleep": lambda _: None},
        )
        policy._tenant = "t-after"
        cache_set = _full_set()
        for n in range(3):
            assert policy.victim(0, cache_set, _record()) == \
                   cache_set.lru_way()
        assert policy.local_fallbacks == 3


class TestMalformedAndTruncatedFrames:
    def test_garbage_frame_gets_an_error_reply_not_a_crash(self):
        with start_in_thread(ServeConfig()) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=5
            ) as raw:
                raw.sendall(b"{this is not json}\n")
                reply = json.loads(raw.makefile("rb").readline())
            assert reply["ok"] is False
            assert "bad frame" in reply["error"]
            # The server is still alive for the next tenant.
            client = PolicyClient(handle.host, handle.port)
            assert client.ping()["op"] == "pong"
            client.close()

    def test_truncated_frame_at_eof_closes_cleanly(self):
        with start_in_thread(ServeConfig()) as handle:
            raw = socket.create_connection((handle.host, handle.port),
                                           timeout=5)
            raw.sendall(b'{"op": "ping"')  # no newline: torn mid-frame
            raw.close()
            client = PolicyClient(handle.host, handle.port)
            assert client.ping()["op"] == "pong"
            client.close()

    def test_oversized_frame_is_rejected(self):
        from repro.serve.protocol import MAX_FRAME_BYTES

        with start_in_thread(ServeConfig()) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=5
            ) as raw:
                raw.sendall(b'{"pad": "' + b"x" * MAX_FRAME_BYTES + b'"}\n')
                reply = json.loads(raw.makefile("rb").readline())
            assert reply["ok"] is False
            assert "too large" in reply["error"]


class TestPoisonedReply:
    def test_out_of_range_way_is_discarded_for_local_lru(self, tmp_path):
        spec = FaultSpec(site="serve.reply", action="poison",
                         match={"tenant": "t-poison"}, times=1)
        with start_in_thread(ServeConfig()) as handle:
            with injected_faults([spec], tmp_path):
                policy = ServerBackedPolicy("lru", handle.host, handle.port,
                                            tenant="t-poison")
                policy.bind(_config())
                cache_set = _full_set()
                way = policy.victim(0, cache_set, _record())
                assert way == cache_set.lru_way()  # poison discarded
                assert policy.local_fallbacks == 1
                # Next decision is trusted again.
                assert policy.victim(0, cache_set, _record()) == \
                       cache_set.lru_way()
                assert policy.local_fallbacks == 1
                policy.close()

    def test_corrupt_reply_frame_recovers_via_idempotent_retry(
        self, tmp_path
    ):
        # The reply frame is truncated mid-line; the client reconnects and
        # retransmits the same request id, and the server answers from its
        # reply cache without re-deciding.
        spec = FaultSpec(site="serve.reply.corrupt", action="poison",
                         times=1)
        with start_in_thread(ServeConfig()) as handle:
            with injected_faults([spec], tmp_path):
                client = _bound_client(handle, "t-corrupt",
                                       timeout=2.0, retries=2,
                                       sleep=lambda _: None)
                reply = client.request(
                    victim_request("t-corrupt", "t-corrupt-1", 0,
                                   _full_set(), _record())
                )
            assert reply is not None and reply["ok"]
            assert reply["source"] == "policy"
            assert client.transport_failures == 1
            stats = client.stats("t-corrupt")["tenant"]
            assert stats["requests"] == 1  # decided once, served twice
            client.close()


class TestDroppedAndStalledConnections:
    def test_dropped_connection_at_accept_is_retried(self, tmp_path):
        spec = FaultSpec(site="serve.conn", action="error", times=1)
        with start_in_thread(ServeConfig()) as handle:
            with injected_faults([spec], tmp_path):
                client = PolicyClient(handle.host, handle.port,
                                      timeout=2.0, retries=2,
                                      sleep=lambda _: None)
                reply = client.ping()
            assert reply["op"] == "pong"
            assert client.transport_failures >= 1
            client.close()

    def test_stalled_accept_is_survived(self, tmp_path):
        spec = FaultSpec(site="serve.conn", action="slow:50", times=1)
        with start_in_thread(ServeConfig()) as handle:
            with injected_faults([spec], tmp_path):
                client = PolicyClient(handle.host, handle.port, timeout=5.0)
                assert client.ping()["op"] == "pong"
            client.close()


class TestRestartWithRestore:
    def _run_some_traffic(self, handle, tenant: str) -> None:
        client = _bound_client(handle, tenant)
        for n in range(5):
            client.request(
                victim_request(tenant, f"{tenant}-{n}", 0, _full_set(),
                               _record())
            )
        client.close()

    def test_restore_is_bit_identical(self, tmp_path):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        first_dir.mkdir()
        second_dir.mkdir()

        handle = start_in_thread(ServeConfig(snapshot_dir=first_dir))
        self._run_some_traffic(handle, "t-restore")
        handle.stop()  # drain writes the final snapshot

        restored = start_in_thread(
            ServeConfig(snapshot_dir=second_dir),
            restore=first_dir / "serve-snapshot.pkl",
        )
        # The restored server already knows the tenant: a victim request
        # works without a fresh bind, and dedup still holds.
        client = PolicyClient(restored.host, restored.port)
        replay = client.request(
            victim_request("t-restore", "t-restore-4", 0, _full_set(),
                           _record())
        )
        assert replay["ok"]
        stats = client.stats("t-restore")["tenant"]
        assert stats["requests"] == 5  # dedup: no new decision
        client.close()
        restored.stop()

        first = load_server_snapshot(first_dir)
        second = load_server_snapshot(second_dir)
        assert first["victims_served"] == second["victims_served"]
        first_shard = first["tenants"]["t-restore"]
        second_shard = second["tenants"]["t-restore"]
        assert first_shard["health"] == second_shard["health"]
        assert first_shard["replies"] == second_shard["replies"]

    def test_torn_snapshot_is_rejected(self, tmp_path):
        server = PolicyServer(ServeConfig(snapshot_dir=tmp_path))
        path = save_server_snapshot(tmp_path, server)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError):
            load_server_snapshot(path)

    def test_missing_snapshot_is_a_typed_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="no server snapshot"):
            load_server_snapshot(tmp_path / "nope.pkl")
