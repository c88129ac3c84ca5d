"""Differential tests: the parallel sweep engine vs the serial runner.

Three synthetic workloads x five policies (including Belady): every
per-cell metric from :func:`repro.eval.parallel.parallel_sweep` must be
*exactly* equal to the serial :func:`run_workload` result, ``--jobs 1`` and
``--jobs 4`` must render byte-identical reports, and a warm prepared-
workload cache must serve a repeat sweep with zero ``prepare_workload``
calls.
"""

from __future__ import annotations

import pytest

import repro.eval.parallel as parallel_module
import repro.eval.runner as runner_module
from repro.cache.replacement.base import ReplacementPolicy
from repro.eval.parallel import parallel_sweep
from repro.eval.runner import run_belady, run_workload
from repro.eval.workloads import EvalConfig

from tests.conftest import cell_rows

WORKLOADS = ["429.mcf", "403.gcc", "471.omnetpp"]
POLICIES = ["lru", "srrip", "ship", "rlr", "belady"]


def _fresh_config() -> EvalConfig:
    return EvalConfig(scale=64, trace_length=4000, seed=3)


@pytest.fixture(scope="module")
def serial_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("prep-serial"))


@pytest.fixture(scope="module")
def parallel_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("prep-parallel"))


@pytest.fixture(scope="module")
def serial_report(serial_cache_dir):
    return parallel_sweep(
        _fresh_config(), WORKLOADS, POLICIES, jobs=1, cache_dir=serial_cache_dir
    )


@pytest.fixture(scope="module")
def parallel_report(parallel_cache_dir):
    return parallel_sweep(
        _fresh_config(), WORKLOADS, POLICIES, jobs=4, cache_dir=parallel_cache_dir
    )


class TestDifferential:
    def test_every_cell_succeeded(self, parallel_report):
        assert parallel_report.failures() == []
        assert len(parallel_report.cells) == len(WORKLOADS) * len(POLICIES)

    def test_parallel_equals_serial_run_workload(self, parallel_report):
        """Per-cell hit rates, MPKI, and IPC exactly match the serial path."""
        config = _fresh_config()
        for workload in WORKLOADS:
            trace = config.trace(workload)
            for policy in POLICIES:
                if policy == "belady":
                    expected = run_belady(config, trace)
                else:
                    expected = run_workload(config, trace, policy)
                cell = parallel_report.cell(workload, policy)
                assert cell.ok, cell.error
                result = cell.result
                assert result.llc_hit_rate == expected.llc_hit_rate
                assert result.llc_demand_hit_rate == expected.llc_demand_hit_rate
                assert result.demand_mpki == expected.demand_mpki
                assert result.ipc == expected.ipc
                assert result.llc_stats == expected.llc_stats

    def test_jobs_1_vs_jobs_4_byte_identical(self, serial_report, parallel_report):
        assert cell_rows(serial_report) == cell_rows(parallel_report)


class TestWarmCache:
    def test_warm_cache_skips_prepare_entirely(
        self, serial_report, serial_cache_dir, monkeypatch
    ):
        """A repeat sweep over a warm cache never calls prepare_workload."""
        calls = []

        def counting_prepare(*args, **kwargs):
            calls.append((args, kwargs))
            raise AssertionError("prepare_workload must not run on a warm cache")

        monkeypatch.setattr(parallel_module, "prepare_workload", counting_prepare)
        monkeypatch.setattr(runner_module, "prepare_workload", counting_prepare)
        report = parallel_sweep(
            _fresh_config(), WORKLOADS, POLICIES, jobs=1,
            cache_dir=serial_cache_dir,
        )
        assert calls == []
        assert sorted(report.cached_workloads) == sorted(WORKLOADS)
        assert report.failures() == []
        assert cell_rows(report) == cell_rows(serial_report)


class TestDecisionLogDeterminism:
    """--decisions logs are byte-identical across job counts, and the
    decision machinery never perturbs the simulation itself."""

    DECISION_WORKLOADS = ["429.mcf", "403.gcc"]
    DECISION_POLICIES = ["lru", "srrip", "rlr"]

    def _sweep(self, jobs, decisions=None):
        return parallel_sweep(
            _fresh_config(), self.DECISION_WORKLOADS, self.DECISION_POLICIES,
            jobs=jobs, decisions=decisions,
        )

    def test_jobs_1_vs_jobs_4_byte_identical_logs(self, tmp_path):
        from repro.telemetry.decisions import write_decisions_jsonl

        serial = self._sweep(jobs=1, decisions=1)
        parallel = self._sweep(jobs=4, decisions=1)
        paths = {}
        for label, report in (("serial", serial), ("parallel", parallel)):
            cells = report.decision_payloads()
            assert len(cells) == (
                len(self.DECISION_WORKLOADS) * len(self.DECISION_POLICIES)
            )
            paths[label] = write_decisions_jsonl(
                tmp_path / f"{label}.jsonl", cells
            )
        assert paths["serial"].read_bytes() == paths["parallel"].read_bytes()

    def test_decisions_do_not_change_the_report(self):
        """A traced sweep's report is byte-identical to an untraced one."""
        plain = self._sweep(jobs=2)
        traced = self._sweep(jobs=2, decisions=1)
        assert cell_rows(plain) == cell_rows(traced)
        assert all(cell.decisions is None for cell in plain.cells)

    def test_sample_rate_thins_events_not_aggregates(self):
        full = self._sweep(jobs=1, decisions=1)
        thinned = self._sweep(jobs=1, decisions=4)
        for dense, sparse in zip(
            full.decision_payloads(), thinned.decision_payloads()
        ):
            assert dense["summary"]["evictions"] == sparse["summary"]["evictions"]
            assert dense["summary"]["regret_x2"] == sparse["summary"]["regret_x2"]
            assert dense["set_evictions"] == sparse["set_evictions"]
            assert len(sparse["events"]) <= len(dense["events"])

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            self._sweep(jobs=1, decisions=0)


class ExplodingPolicy(ReplacementPolicy):
    """Raises on the first eviction decision (module-level: picklable)."""

    name = "exploding"

    def victim(self, set_index, cache_set, access):
        raise RuntimeError("synthetic policy failure")


class TestFaultIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_policy_failure_is_per_cell(self, jobs):
        config = _fresh_config()
        report = parallel_sweep(
            config, ["429.mcf"], ["lru", ExplodingPolicy()], jobs=jobs
        )
        good = report.cell("429.mcf", "lru")
        bad = report.cell("429.mcf", "exploding")
        assert good.ok and good.result.llc_hit_rate > 0
        assert not bad.ok
        assert "synthetic policy failure" in bad.error
        assert [cell.policy for cell in report.failures()] == ["exploding"]


class TestPolicyInstances:
    """An instance replays as the caller passed it, in every cell."""

    @pytest.mark.parametrize("sanitize", ["off", "normal"])
    def test_instance_state_does_not_leak_between_cells(self, sanitize):
        from repro.cache.replacement import make_policy

        def sweep(jobs):
            return parallel_sweep(
                EvalConfig(scale=64, trace_length=1500, seed=3),
                ["429.mcf", "471.omnetpp"], [make_policy("random")],
                jobs=jobs, use_cache=False, sanitize=sanitize,
            )

        serial, pooled = sweep(1), sweep(2)
        assert [cell.status for cell in serial.cells] == ["ok", "ok"]
        assert cell_rows(serial) == cell_rows(pooled)
