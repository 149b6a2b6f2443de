"""Every crash point of a seeded run recovers a prefix (``tests/crash_points.py``).

Tier-1 enumerates one seed per cell exhaustively; ``make crash-enum
SEEDS="..."`` runs the same cells over a wide seed list through
``CRASH_ENUM_SEEDS``.  Each fixed prefix-consistency bug keeps the first
crash point that caught it, and two item-10 mutants must be caught.
"""

import os
from unittest import mock

import pytest

from repro.core.log import decode_record
from repro.core.write_cache import WriteCache
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


#: item-10 mutant -> (WriteCache method, its mutated body, cell, seed)
MUTANTS = {
    "1-no-sequence-jump": ("resume_after", lambda self, seq: None, "sepbit-1sync", 4),
    "4-stale-epoch-accepted": ("_try_decode_at", _decode_any_epoch, "sepbit-4unsettled", 3),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(mutant):
    method, body, cell, seed = MUTANTS[mutant]
    with mock.patch.object(WriteCache, method, body), pytest.raises(CrashPointFailure):
        run_cell(cell, seed)
