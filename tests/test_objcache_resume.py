"""Crash-safe resume for object-cache sweeps.

The contract mirrors the scalar sweep's: every completed cell is durably
journaled as it finishes, so the state a SIGKILL leaves behind — a journal
holding some prefix of the grid — resumes to a report *byte-identical* to
an uninterrupted run.  (The torn-journal and crash-at-every-byte cases are
covered by ``test_store_atomic_crash`` / ``test_fsck_chaos``; here the
journal contents stand in for the post-SIGKILL state.)
"""

import pytest

from repro.objcache import generate_object_trace, object_sweep
from repro.runs.journal import RunJournal

from tests.conftest import cell_rows

CAPACITY = 400_000
POLICIES = ["lru", "gdsf", "lru_size"]


@pytest.fixture(scope="module")
def traces():
    return [
        generate_object_trace(
            name=f"zipf-{seed}", kind="zipf", objects=120, length=900,
            seed=seed,
            sizes={"dist": "lognormal", "min": 64, "max": 1 << 16,
                   "correlate": "inverse"},
        )
        for seed in (1, 2)
    ]


class TestObjectSweepJournal:
    def test_completed_cells_are_journaled(self, tmp_path, traces):
        journal = RunJournal(tmp_path / "journal.jsonl")
        report = object_sweep(traces, CAPACITY, POLICIES, journal=journal)
        entries = RunJournal(tmp_path / "journal.jsonl").entries()
        assert len(entries) == len(report.cells) == 6
        assert all(entry["result_kind"] == "object" for entry in entries)

    def test_partial_journal_resumes_byte_identically(
        self, tmp_path, traces
    ):
        reference = object_sweep(traces, CAPACITY, POLICIES)

        full = RunJournal(tmp_path / "full.jsonl")
        object_sweep(traces, CAPACITY, POLICIES, journal=full)

        # The post-SIGKILL state: only the first 2 cells' appends landed.
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        (tmp_path / "partial.jsonl").write_text("\n".join(lines[:2]) + "\n")

        resumed = object_sweep(
            traces, CAPACITY, POLICIES,
            journal=RunJournal(tmp_path / "partial.jsonl"),
        )
        assert len(resumed.resumed) == 2
        assert cell_rows(resumed) == cell_rows(reference)
        # The resumed run back-fills the journal to the full grid.
        assert len(RunJournal(tmp_path / "partial.jsonl").entries()) == 6

    def test_journal_tags_keep_multi_seed_grids_apart(self, tmp_path,
                                                      traces):
        journal = RunJournal(tmp_path / "journal.jsonl")
        object_sweep(traces, CAPACITY, POLICIES, journal=journal,
                     journal_tag="seed-0")
        # A different tag shares the journal file but adopts nothing.
        other = object_sweep(
            traces, CAPACITY, POLICIES,
            journal=RunJournal(tmp_path / "journal.jsonl"),
            journal_tag="seed-1",
        )
        assert other.resumed == ()
        entries = RunJournal(tmp_path / "journal.jsonl").entries()
        assert {entry["tag"] for entry in entries} == {"seed-0", "seed-1"}

    def test_journal_entries_outside_the_grid_are_ignored(self, tmp_path,
                                                          traces):
        journal = RunJournal(tmp_path / "journal.jsonl")
        object_sweep(traces, CAPACITY, ["fifo"], journal=journal)
        report = object_sweep(
            traces, CAPACITY, POLICIES,
            journal=RunJournal(tmp_path / "journal.jsonl"),
        )
        assert report.resumed == ()
        assert [cell.policy for cell in report.cells] == [
            policy for _ in traces for policy in sorted(POLICIES)
        ]

