"""Wire protocol for the eviction-as-a-service server.

Frames are newline-delimited JSON (NDJSON): one compact JSON object per
``\\n``-terminated line, UTF-8, at most :data:`MAX_FRAME_BYTES` long.  The
format is deliberately boring — any language with a JSON library and a TCP
socket can be a tenant — and self-delimiting, so a torn or truncated frame
is detected at the line level and surfaces as a typed :class:`FrameError`
instead of a hung read.

Requests carry an ``op``:

``bind``
    Register a tenant: policy name + constructor params + cache geometry.
    Replies with the policy's ``needs_line_metadata`` / ``uses_pc`` flags
    so the client-side adapter can mirror them *before* the replay loop
    reads them.
``hook``
    One-way policy lifecycle event (``on_hit`` / ``on_miss`` /
    ``on_evict`` / ``on_fill``).  No reply; ordering is guaranteed by the
    connection (frames are processed in arrival order).
``victim``
    The decision request: a full snapshot of the cache set plus the
    triggering access.  Always answered — by the tenant's policy when it
    is healthy and within its deadline budget, by the per-shard LRU
    fallback otherwise — with ``source``/``reason`` saying which path ran.
    Carries a client-chosen idempotent ``id``: retransmits of an already
    answered id return the recorded reply instead of re-deciding.
``ping`` / ``stats`` / ``snapshot`` / ``shutdown``
    Liveness probe, health introspection, forced state snapshot, and a
    drain request (same path as SIGTERM).

The codecs below round-trip the simulator's value types
(:class:`~repro.traces.record.TraceRecord`,
:class:`~repro.cache.block.CacheLine`,
:class:`~repro.cache.cache_set.CacheSet`) exactly: the server rebuilds a
*real* ``CacheSet`` from the wire form, so server-side policies see the
same object surface (``lru_way``, ``valid_ways``, ``recencies``, ages,
...) as in-process ones — that equivalence is what makes no-fault
server-backed reports byte-identical to in-process reports.
"""

from __future__ import annotations

import json

from repro.cache.block import CacheLine
from repro.cache.cache_set import CacheSet
from repro.cache.config import CacheConfig
from repro.traces.record import AccessType, TraceRecord

#: Upper bound on one frame; larger frames are a protocol violation.  A
#: 16-way set snapshot is ~2 KiB, so this leaves two orders of headroom.
MAX_FRAME_BYTES = 256 * 1024

#: Protocol version, echoed in bind replies; bumped on incompatible change.
PROTOCOL_VERSION = 1


class FrameError(ValueError):
    """A malformed, truncated, oversized, or type-invalid frame."""


def encode_frame(payload: dict) -> bytes:
    """Serialize one frame: compact JSON + newline."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) + 1 > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return data + b"\n"


def decode_frame(line: bytes) -> dict:
    """Parse one received line into a frame dict (typed errors only)."""
    if len(line) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(line)} bytes exceeds limit")
    if not line.endswith(b"\n"):
        raise FrameError("truncated frame (no trailing newline)")
    try:
        payload = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"malformed frame: {error}") from error
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# -- value codecs --------------------------------------------------------------


def access_to_wire(access) -> dict:
    """A :class:`TraceRecord` as a compact wire dict."""
    return {
        "a": access.address,
        "pc": access.pc,
        "t": int(access.access_type),
        "d": access.instr_delta,
        "c": access.core,
    }


def access_from_wire(data: dict) -> TraceRecord:
    try:
        return TraceRecord(
            address=int(data["a"]),
            pc=int(data.get("pc", 0)),
            access_type=AccessType(int(data.get("t", 0))),
            instr_delta=int(data.get("d", 1)),
            core=int(data.get("c", 0)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise FrameError(f"invalid access payload {data!r}: {error}") from error


def line_to_wire(line: CacheLine, recency: int = 0,
                 ages: tuple = (0, 0)) -> dict:
    """Every Table II field of one cache line (invalid lines stay small).

    The recency rank and the two ages live on the set, so the caller
    passes them; a hook frame's line travels without its set and carries
    zeros.
    """
    if not line.valid:
        return {"v": 0, "r": recency}
    return {
        "v": 1,
        "tag": line.tag,
        "la": line.line_address,
        "dr": int(line.dirty),
        "off": line.offset,
        "core": line.core,
        "ipc": line.insertion_pc,
        "lpc": line.last_pc,
        "lat": int(line.last_access_type),
        "int": int(line.insertion_type),
        "pre": line.preuse,
        "ai": ages[0],
        "al": ages[1],
        "h": line.hits_since_insertion,
        "ac": list(line.access_counts),
        "r": recency,
    }


def line_from_wire(data: dict, accesses: int = 0) -> CacheLine:
    """Rebuild a line; its age stamps are ``accesses`` minus the ages."""
    try:
        line = CacheLine()
        if not data.get("v"):
            return line
        line.valid = True
        line.tag = int(data["tag"])
        line.line_address = int(data["la"])
        line.dirty = bool(data.get("dr", 0))
        line.offset = int(data.get("off", 0))
        line.core = int(data.get("core", 0))
        line.insertion_pc = int(data.get("ipc", 0))
        line.last_pc = int(data.get("lpc", 0))
        line.last_access_type = AccessType(int(data.get("lat", 0)))
        line.insertion_type = AccessType(int(data.get("int", 0)))
        line.preuse = int(data.get("pre", 0))
        line.inserted_at = accesses - int(data.get("ai", 0))
        line.last_access_at = accesses - int(data.get("al", 0))
        line.hits_since_insertion = int(data.get("h", 0))
        line.access_counts = [int(count) for count in data.get("ac", [0] * 4)]
        return line
    except (KeyError, TypeError, ValueError) as error:
        raise FrameError(f"invalid line payload: {error}") from error


def set_to_wire(cache_set) -> dict:
    """A full cache-set snapshot: lines plus the Table II set counters."""
    return {
        "i": cache_set.index,
        "w": cache_set.ways,
        "acc": cache_set.accesses,
        "asm": cache_set.accesses_since_miss,
        "m": cache_set.misses,
        "lines": [
            line_to_wire(line, rank, (cache_set.age_since_insertion(way),
                                      cache_set.age_since_last_access(way)))
            for way, (line, rank) in enumerate(
                zip(cache_set.lines, cache_set.recencies()))
        ],
    }


def set_from_wire(data: dict) -> CacheSet:
    """Rebuild a *real* :class:`CacheSet` from its wire snapshot.

    Using the genuine class (not a shim) guarantees ``lru_way()`` /
    ``valid_ways()`` / ``find()`` semantics are identical on both ends.
    The recency stack is rebuilt from the lines' ``r`` ranks, LRU first
    (ties keep way order).
    """
    try:
        ways = int(data["w"])
        lines = data["lines"]
        if not isinstance(lines, list) or len(lines) != ways:
            raise FrameError(
                f"set snapshot carries {len(lines) if isinstance(lines, list) else '?'}"
                f" lines for {ways} ways"
            )
        cache_set = CacheSet(int(data["i"]), ways)
        cache_set.accesses = int(data.get("acc", 0))
        cache_set.accesses_since_miss = int(data.get("asm", 0))
        cache_set.misses = int(data.get("m", 0))
        cache_set.lines = [line_from_wire(line, cache_set.accesses)
                           for line in lines]
        ranked = sorted(
            (int(line.get("r", 0)), way)
            for way, line in enumerate(lines) if line.get("v")
        )
        cache_set.stack = {cache_set.lines[way].tag: way for _, way in ranked}
        return cache_set
    except FrameError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise FrameError(f"invalid set payload: {error}") from error


def config_to_wire(config: CacheConfig) -> dict:
    return {
        "name": config.name,
        "size_bytes": config.size_bytes,
        "ways": config.ways,
        "latency": config.latency,
        "line_size": config.line_size,
    }


def config_from_wire(data: dict) -> CacheConfig:
    try:
        return CacheConfig(
            name=str(data["name"]),
            size_bytes=int(data["size_bytes"]),
            ways=int(data["ways"]),
            latency=int(data["latency"]),
            line_size=int(data.get("line_size", 64)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise FrameError(f"invalid config payload {data!r}: {error}") from error


# -- request builders (shared by client and tests) -----------------------------


def bind_request(tenant: str, policy: str, config: CacheConfig,
                 params: dict = None, allow_bypass: bool = False) -> dict:
    return {
        "op": "bind",
        "tenant": tenant,
        "policy": policy,
        "params": params or {},
        "config": config_to_wire(config),
        "allow_bypass": bool(allow_bypass),
        "protocol": PROTOCOL_VERSION,
    }


def hook_request(tenant: str, kind: str, set_index: int, access,
                 way: int = None, line=None) -> dict:
    frame = {
        "op": "hook",
        "tenant": tenant,
        "kind": kind,
        "set": set_index,
        "access": access_to_wire(access),
    }
    if way is not None:
        frame["way"] = way
    if line is not None:
        frame["line"] = line_to_wire(line)
    return frame


def victim_request(tenant: str, request_id: str, set_index: int, cache_set,
                   access) -> dict:
    return {
        "op": "victim",
        "id": request_id,
        "tenant": tenant,
        "set": set_index,
        "set_state": set_to_wire(cache_set),
        "access": access_to_wire(access),
    }


def error_reply(message: str, request_id: str = None) -> dict:
    reply = {"ok": False, "error": str(message)}
    if request_id is not None:
        reply["id"] = request_id
    return reply
