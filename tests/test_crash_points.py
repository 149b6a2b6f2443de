"""Every crash point of a seeded run recovers a prefix (``tests/crash_points.py``).

Tier-1 enumerates one seed per cell exhaustively; ``make crash-enum
SEEDS="..."`` runs the same cells over a wide seed list through
``CRASH_ENUM_SEEDS``.  Each fixed prefix-consistency bug keeps the first
crash point that caught it, and each mutant of a correctness mechanism
must be caught.
"""

import os
from unittest import mock

import pytest

from repro.core import log
from repro.core.batch import WriteBatch
from repro.core.block_store import BlockStore
from repro.core.log import decode_record
from repro.core.volume import LSVDVolume
from repro.core.write_cache import WriteCache
from repro.obs import NULL_SPAN
from tests.crash_points import CELLS, CrashPointFailure, run_cell

SEEDS = [int(seed) for seed in os.environ.get("CRASH_ENUM_SEEDS", "").split()]
TIER1_SEED = 1


@pytest.mark.parametrize("cell", CELLS)
def test_every_crash_point_recovers_a_prefix(cell):
    for seed in SEEDS or [TIER1_SEED]:
        assert run_cell(cell, seed) >= 200  # device events enumerated


#: bug -> (cell, seed, k): the first crash point that fails with only that
#: fix reverted; enumerating through k keeps each one fixed
REGRESSIONS = {
    "stranded-header-outlives-its-object": ("sepbit-1sync", 14, 12),
    "checkpoint-inside-a-seal-group": ("sepbit-1sync", 7, 46),
    "gc-object-closes-a-seal-group": ("sepbit-1sync", 7, 44),
    "cache-checkpoint-names-unflushed-records": ("legacy-4unsettled", 23, 9),
    "cache-freed-past-an-in-flight-put": ("legacy-4unsettled", 8, 31),
    "gc-reads-an-unsettled-object": ("legacy-4unsettled", 4, 20),
    "stale-hint-behind-gc-victims": ("legacy-4unsettled", 13, 29),
    "group-record-mark-short": ("sepbit-1sync", 30, 152),
}


@pytest.mark.parametrize("bug", REGRESSIONS)
def test_fixed_bug_stays_fixed(bug):
    cell, seed, k = REGRESSIONS[bug]
    run_cell(cell, seed, upto=k)


def _decode_any_epoch(self, virt, expected_seq):
    """``WriteCache._try_decode_at`` without its epoch test."""
    for candidate in self._wrap_candidates(virt):
        room = self.log_size - (candidate % self.log_size)
        record = decode_record(self.image.read(self._phys(candidate), min(room, self.log_size)))
        if record is not None and record.seq == expected_seq:
            return record, candidate
    return None, virt


def _release_unsettled(self):
    """``LSVDVolume._advance_release_frontier`` without its settled test."""
    floor = min((p for k, p in self._pending.values() if k != "data"), default=self.bs.next_seq)
    while self._batches and self._batches[0].seq < floor:
        self.wc.release_through(self._batches.pop(0).last_record_seq)


def _ack_before_flush(self, span=NULL_SPAN):
    """``WriteCache.barrier`` acknowledged without its device FLUSH."""
    self.barriers += 1


_SEAL_GROUP = BlockStore.seal_group


def _members_claim_the_mark(self, reason, span=NULL_SPAN):
    """``BlockStore.seal_group`` with every member carrying the group's
    record mark, still marked ``group_open``."""
    seal = WriteBatch.seal

    def claim(batch, *args, last_record_seq, **kwargs):
        return seal(batch, *args, last_record_seq=self._newest_record, **kwargs)

    with mock.patch.object(WriteBatch, "seal", claim):
        return _SEAL_GROUP(self, reason, span)


#: mutant -> (owner, attribute, its mutated value, cell, seed); the numbered
#: rows are ROADMAP item 10's, the rest disable one part of the seal-group rule
MUTANTS = {
    "1-no-sequence-jump": (WriteCache, "resume_after", lambda self, seq: None, "sepbit-1sync", 4),
    "2-barrier-acked-before-flush": (WriteCache, "barrier", _ack_before_flush, "legacy-1sync", 1),
    "3-release-before-put-settles": (
        LSVDVolume, "_advance_release_frontier", _release_unsettled, "legacy-4unsettled", 1),
    "4-stale-epoch-accepted": (
        WriteCache, "_try_decode_at", _decode_any_epoch, "sepbit-4unsettled", 3),
    "group-bit-never-written": (log, "_GROUP_OPEN", 0, "sepbit-1sync", 1),
    "checkpoint-inside-an-open-group": (
        LSVDVolume, "_may_checkpoint", lambda self: not self._pending, "sepbit-1sync", 1),
    "group-member-claims-the-mark": (
        BlockStore, "seal_group", _members_claim_the_mark, "sepbit-4unsettled", 1),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(mutant):
    owner, attribute, value, cell, seed = MUTANTS[mutant]
    with mock.patch.object(owner, attribute, value), pytest.raises(CrashPointFailure):
        run_cell(cell, seed)
