"""The NDJSON wire protocol (repro.serve.protocol): codecs and framing."""

from __future__ import annotations

import pytest

from repro.cache.block import CacheLine
from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    FrameError,
    access_from_wire,
    access_to_wire,
    bind_request,
    config_from_wire,
    config_to_wire,
    decode_frame,
    encode_frame,
    error_reply,
    hook_request,
    line_from_wire,
    line_to_wire,
    set_from_wire,
    set_to_wire,
    victim_request,
)
from repro.traces.record import AccessType, TraceRecord


def _config() -> CacheConfig:
    return CacheConfig("llc", 64 * 1024, 16, 30)


def _record(address: int = 0x1000, pc: int = 0x40) -> TraceRecord:
    return TraceRecord(address=address, pc=pc,
                       access_type=AccessType.LOAD, core=0)


def _populated_set(ways: int = 4) -> CacheSet:
    cache_set = CacheSet(3, ways)
    record = _record()
    for way in range(ways - 1):  # one way left invalid on purpose
        cache_set.accesses += 2
        cache_set.fill(way, 0x100 + way, 0x4000 + way, record)
        cache_set.lines[way].touch(_record(pc=0x99), cache_set.accesses + 1)
    cache_set.accesses = 17
    cache_set.accesses_since_miss = 5
    cache_set.misses = 3
    return cache_set


class TestFraming:
    def test_round_trip(self):
        frame = {"op": "ping", "n": 1}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encoded_frame_is_one_line(self):
        payload = encode_frame({"op": "ping"})
        assert payload.endswith(b"\n")
        assert payload.count(b"\n") == 1

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(FrameError, match="exceeds MAX_FRAME_BYTES"):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})

    def test_garbage_rejected_on_decode(self):
        with pytest.raises(FrameError):
            decode_frame(b"{not json}\n")

    def test_non_object_rejected_on_decode(self):
        with pytest.raises(FrameError, match="object"):
            decode_frame(b"[1, 2]\n")

    def test_error_reply_shape(self):
        reply = error_reply("boom", "req-1")
        assert reply["ok"] is False
        assert reply["error"] == "boom"
        assert reply["id"] == "req-1"


class TestAccessCodec:
    def test_round_trip(self):
        record = TraceRecord(address=0xDEAD, pc=0xBEEF,
                             access_type=AccessType.PREFETCH, core=2)
        back = access_from_wire(access_to_wire(record))
        assert back.address == record.address
        assert back.pc == record.pc
        assert back.access_type is record.access_type
        assert back.core == record.core


class TestLineCodec:
    def test_invalid_line_round_trip(self):
        wire = line_to_wire(CacheLine(), recency=9)
        back = line_from_wire(wire)
        assert not back.valid
        assert wire["r"] == 9

    def test_valid_line_round_trip_preserves_table2_metadata(self):
        line = CacheLine()
        line.fill(0x77, 0x4000, _record(), now=10)
        line.touch(_record(pc=0x99), now=13)
        # At set access 15 the line's ages are 5 and 2.
        wire = line_to_wire(line, recency=2, ages=(5, 2))
        assert (wire["r"], wire["ai"], wire["al"]) == (2, 5, 2)
        back = line_from_wire(wire, accesses=15)
        for field in ("valid", "tag", "line_address", "dirty", "offset",
                      "core", "insertion_pc", "last_pc", "last_access_type",
                      "insertion_type", "preuse", "hits_since_insertion",
                      "access_counts", "inserted_at", "last_access_at"):
            assert getattr(back, field) == getattr(line, field), field


class TestSetCodec:
    def test_round_trip_rebuilds_a_real_cache_set(self):
        original = _populated_set()
        back = set_from_wire(set_to_wire(original))
        assert isinstance(back, CacheSet)
        assert back.index == original.index
        assert back.ways == original.ways
        assert back.accesses == original.accesses
        assert back.accesses_since_miss == original.accesses_since_miss
        assert back.misses == original.misses
        assert [line.valid for line in back.lines] == \
               [line.valid for line in original.lines]
        assert back.lru_way() == original.lru_way()
        assert back.recencies() == original.recencies()
        for way in back.valid_ways():
            assert (back.age_since_insertion(way)
                    == original.age_since_insertion(way))
            assert (back.age_since_last_access(way)
                    == original.age_since_last_access(way))

    def test_bad_set_state_raises_frame_error(self):
        with pytest.raises(FrameError):
            set_from_wire({"i": 0})  # no ways/lines


class TestConfigCodec:
    def test_round_trip(self):
        config = _config()
        assert config_from_wire(config_to_wire(config)) == config


class TestRequestBuilders:
    def test_bind_request(self):
        frame = bind_request("t1", "lru", _config(), {"x": 1}, False)
        assert frame["op"] == "bind"
        assert frame["tenant"] == "t1"
        assert frame["policy"] == "lru"
        assert config_from_wire(frame["config"]) == _config()

    def test_hook_request(self):
        frame = hook_request("t1", "on_miss", 4, _record())
        assert frame["op"] == "hook"
        assert frame["kind"] == "on_miss"
        assert frame["set"] == 4

    def test_victim_request_is_self_contained(self):
        cache_set = _populated_set()
        frame = victim_request("t1", "t1-9", 3, cache_set, _record())
        assert frame["op"] == "victim"
        assert frame["id"] == "t1-9"
        rebuilt = set_from_wire(frame["set_state"])
        assert rebuilt.lru_way() == cache_set.lru_way()
        # The frame survives a real encode/decode cycle.
        assert decode_frame(encode_frame(frame))["id"] == "t1-9"
