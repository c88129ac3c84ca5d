"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest
from hypothesis import settings

from repro.cache import Cache, CacheConfig
from repro.cache.replacement import make_policy
from repro.traces import AccessType, TraceRecord

#: The CI fuzz steps run with ``--hypothesis-profile=fuzz``.  On CI,
#: Hypothesis otherwise loads its built-in ``ci`` profile, which
#: derandomizes: every run, and every case of a parametrized test, would
#: draw the same examples.  A failure prints its ``@reproduce_failure``
#: blob, which is what reproduces it (a pinned ``--hypothesis-seed`` would
#: also give every parametrized case the same examples).
settings.register_profile("fuzz", derandomize=False, print_blob=True)


@pytest.fixture
def tiny_config():
    """4 sets x 4 ways = 16 lines; small enough to reason about by hand."""
    return CacheConfig("tiny", 4 * 4 * 64, 4, latency=10)


@pytest.fixture
def small_config():
    """16 sets x 16 ways = 256 lines; the paper's associativity."""
    return CacheConfig("small", 16 * 16 * 64, 16, latency=26)


@pytest.fixture
def make_cache():
    """Factory: build a cache with a named policy bound to a config."""

    def build(config, policy="lru", **kwargs):
        if isinstance(policy, str):
            policy = make_policy(policy)
        policy.bind(config)
        return Cache(config, policy, **kwargs)

    return build


def cell_rows(report) -> list:
    """Every field a sweep report's cells carry, for equality checks:
    ``(workload, policy, status, result fields or error line, violations)``.
    """
    return [
        (cell.workload, cell.policy, cell.status,
         asdict(cell.result) if cell.ok
         else cell.error.strip().splitlines()[-1],
         cell.violations)
        for cell in report.cells
    ]


def load(line: int, pc: int = 0, core: int = 0) -> TraceRecord:
    """A LOAD record for cache line ``line``."""
    return TraceRecord(
        address=line * 64, pc=pc, access_type=AccessType.LOAD, core=core
    )


def rfo(line: int, pc: int = 0) -> TraceRecord:
    return TraceRecord(address=line * 64, pc=pc, access_type=AccessType.RFO)


def prefetch(line: int, pc: int = 0) -> TraceRecord:
    return TraceRecord(address=line * 64, pc=pc, access_type=AccessType.PREFETCH)


def writeback(line: int) -> TraceRecord:
    return TraceRecord(address=line * 64, access_type=AccessType.WRITEBACK)


@pytest.fixture
def records():
    """Record-constructing helpers as a namespace."""

    class Records:
        load = staticmethod(load)
        rfo = staticmethod(rfo)
        prefetch = staticmethod(prefetch)
        writeback = staticmethod(writeback)

    return Records


@pytest.fixture
def rng():
    return random.Random(1234)
