"""Differential test: the chunked extent map vs a naive per-address model.

Drives ``ExtentMap`` (and the seed flat-list baseline it is benchmarked
against) through thousands of seeded random update/remove/lookup
operations over an address space large enough to force many leaf chunks,
checking every few hundred ops that the map agrees *exactly* — address by
address — with a dict-of-blocks reference that cannot have extent-merge
or carve bugs.  Checkpoint/restore (``entries``/``from_entries``) and
crash-replay (restore an old checkpoint, replay the suffix, compare) are
exercised mid-run at multi-chunk sizes, not just at the end.
"""

import random

from repro.baselines.flat_extent_map import FlatExtentMap
from repro.core.extent_map import ExtentMap

SPAN = 8192  # address space: small enough to verify exhaustively,
N_OPS = 6000  # large enough to fragment into many 256-extent leaves


def _structural_invariants(m: ExtentMap) -> None:
    assert len(m._chunks) == len(m._lbas) == len(m._firsts)
    total = 0
    prev_end = None
    for chunk, lbas, first in zip(m._chunks, m._lbas, m._firsts):
        assert chunk, "empty leaf chunks must be removed"
        assert len(chunk) <= 2 * m._CHUNK_TARGET
        assert first == chunk[0].lba
        assert lbas == [e.lba for e in chunk]
        for e in chunk:
            if prev_end is not None:
                assert e.lba >= prev_end, "extents must be sorted and disjoint"
            prev_end = e.end
        total += len(chunk)
    assert total == len(m)


def _assert_matches_model(m: ExtentMap, model: dict) -> None:
    """Exact agreement with the per-address reference, both directions."""
    covered = {}
    for ext in m:
        for a in range(ext.lba, ext.end):
            covered[a] = (ext.target, ext.offset + (a - ext.lba))
    assert covered == model
    assert m.mapped_bytes() == len(model)


def _apply(m, model, op) -> None:
    kind, lba, length, target, offset = op
    if kind == "update":
        displaced = m.update(lba, length, target, offset)
        if model is not None:
            assert sum(d.length for d in displaced) == sum(
                1 for a in range(lba, lba + length) if a in model
            )
            for a in range(lba, lba + length):
                model[a] = (target, offset + (a - lba))
    else:
        displaced = m.remove(lba, length)
        if model is not None:
            for a in range(lba, lba + length):
                model.pop(a, None)


def _random_ops(rng: random.Random, n: int):
    ops = []
    for i in range(n):
        kind = "update" if rng.random() < 0.8 else "remove"
        lba = rng.randrange(0, SPAN - 64)
        length = rng.randint(1, 64)
        ops.append((kind, lba, length, rng.randrange(8), i * 1000))
    return ops


def test_model_differential_with_checkpoints_and_replay():
    rng = random.Random(0xC0FFEE)
    ops = _random_ops(rng, N_OPS)
    m = ExtentMap()
    flat = FlatExtentMap()
    model = {}
    max_chunks = 0
    checkpoint = None  # (entries, op index) for the crash-replay leg
    for i, op in enumerate(ops):
        _apply(m, model, op)
        _apply(flat, None, op)
        max_chunks = max(max_chunks, len(m._chunks))
        if (i + 1) % 500 == 0:
            _structural_invariants(m)
            _assert_matches_model(m, model)
            # the seed flat list is the second, independent reference:
            # the chunked map must stay behaviourally identical to it
            assert flat.entries() == m.entries()
            # checkpoint/restore round-trips at this (multi-chunk) size
            restored = ExtentMap.from_entries(m.entries())
            assert restored.entries() == m.entries()
            assert restored.mapped_bytes() == m.mapped_bytes()
            _structural_invariants(restored)
            if checkpoint is None and len(m._chunks) > 1:
                checkpoint = (m.entries(), i + 1)
    assert max_chunks > 1, "workload never exceeded one leaf chunk"
    _assert_matches_model(m, model)

    # crash-replay: restore the mid-run checkpoint, replay the remaining
    # ops on it, and require exact agreement with the never-crashed map
    assert checkpoint is not None
    entries, replay_from = checkpoint
    replayed = ExtentMap.from_entries(entries)
    assert len(replayed._chunks) > 1
    for op in ops[replay_from:]:
        _apply(replayed, None, op)
    assert replayed.entries() == m.entries()
    assert replayed.mapped_bytes() == m.mapped_bytes()
    _structural_invariants(replayed)


def test_model_differential_second_seed_heavier_removals():
    """A removal-heavy mix drives the fold path; same exactness bar."""
    rng = random.Random(1234)
    m = ExtentMap()
    model = {}
    for i in range(5000):
        kind = "update" if rng.random() < 0.55 else "remove"
        lba = rng.randrange(0, SPAN - 128)
        length = rng.randint(1, 128)
        _apply(m, model, (kind, lba, length, rng.randrange(4), i * 1000))
        if (i + 1) % 1000 == 0:
            _structural_invariants(m)
            _assert_matches_model(m, model)
    _assert_matches_model(m, model)
