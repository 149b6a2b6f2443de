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


# ---------------------------------------------------------------------------
# leaf edges: an update splices into one leaf and falls back to carve +
# insert when its run or a join reaches past that leaf; every op here is
# replayed on the flat reference and compared exactly
# ---------------------------------------------------------------------------


def _lockstep(m: ExtentMap, flat: FlatExtentMap, op) -> None:
    kind, lba, length, target, offset = op
    if kind == "update":
        got, want = m.update(lba, length, target, offset), flat.update(lba, length, target, offset)
    elif kind == "remove":
        got, want = m.remove(lba, length), flat.remove(lba, length)
    else:  # "release": the conditional remove, against lookup + remove
        got = m.remove_matching(lba, length, target, offset)
        want = [
            p
            for p in flat.lookup(lba, length)
            if p.target == target and p.offset == offset + (p.lba - lba)
        ]
        for piece in want:
            flat.remove(piece.lba, piece.length)
    assert got == want
    assert m.entries() == flat.entries()
    assert len(m) == len(flat)
    assert m.mapped_bytes() == flat.mapped_bytes()
    _structural_invariants(m)


def _edge_maps(leaves: int = 4):
    """Both maps over ``leaves`` full leaves: extent i at 10*i, 6 long,
    target i % 2, offset 100*i (gaps of 4, so nothing coalesces)."""
    rows = [(10 * i, 6, i % 2, 100 * i) for i in range(leaves * ExtentMap._CHUNK_TARGET)]
    m, flat = ExtentMap.from_entries(rows), FlatExtentMap.from_entries(rows)
    assert len(m._chunks) == leaves
    return m, flat


def test_updates_at_leaf_edges_match_the_flat_reference():
    m, flat = _edge_maps()
    T = m._CHUNK_TARGET
    e1, e2, e3 = 10 * T, 20 * T, 30 * T  # first lbas of leaves 1, 2, 3
    # the run spans two leaves: leaf 0's tail and leaf 1's head
    _lockstep(m, flat, ("update", e1 - 7, 10, "z", 0))
    _lockstep(m, flat, ("update", e1 - 12, 30, "z", 500))
    assert m.lookup(e1 - 12, 30) == [(e1 - 12, 30, "z", 500)]
    # past leaf 1's tail (target 1, offset 100 * (2T - 1)): spliced at
    # that leaf's end, joining the tail
    _lockstep(m, flat, ("update", e2 - 4, 4, 1, 100 * (2 * T - 1) + 6))
    # an exact replacement of leaf 2's head that joins leaf 1's tail
    _lockstep(m, flat, ("update", e2, 6, 1, 100 * (2 * T - 1) + 10))
    assert m.lookup(e2 - 10, 16) == [(e2 - 10, 16, 1, 100 * (2 * T - 1))]
    # fills the gap before leaf 3's head (target 0, offset 100 * 3T), joining it
    _lockstep(m, flat, ("update", e3 - 4, 4, 0, 100 * 3 * T - 4))
    assert m.lookup(e3 - 4, 10) == [(e3 - 4, 10, 0, 100 * 3 * T - 4)]
    # exact same-range replacements: mid-leaf (twice), and a leaf's head
    _lockstep(m, flat, ("update", 50, 6, "x", 7))
    _lockstep(m, flat, ("update", 50, 6, "x", 7))
    head = m._firsts[1]
    _lockstep(m, flat, ("update", head, m._chunks[1][0].length, "y", 0))


def test_an_update_that_shrinks_leaves_folds_them():
    m, flat = _edge_maps(leaves=5)
    T = m._CHUNK_TARGET
    # each update cuts all but a few of one leaf's extents: leaf 1 stays
    # (it and leaf 2 do not fit in one leaf), then folds with shrunken leaf 2
    for leaf, leaves in ((1, 5), (2, 4)):
        lo, hi = m._firsts[leaf], m._chunks[leaf][-1].lba
        _lockstep(m, flat, ("update", lo + 2, hi - lo - 20, "w", leaf))
        assert len(m._chunks) == leaves and len(m._chunks[1]) < T // 4


def test_conditional_remove_drops_only_pieces_still_mapped_there():
    m, flat = _edge_maps()
    T = m._CHUNK_TARGET
    e1 = 10 * T
    _lockstep(m, flat, ("update", e1 - 10, 20, "r", 0))  # one extent across the edge
    _lockstep(m, flat, ("update", e1 - 4, 2, "new", 0))  # a newer write inside it
    _lockstep(m, flat, ("release", e1 - 10, 20, "r", 0))  # drops both outer pieces
    assert m.lookup(e1 - 10, 20) == [(e1 - 4, 2, "new", 0)]
    _lockstep(m, flat, ("release", 0, 6, 0, 1))  # right target, shifted: stays
    _lockstep(m, flat, ("release", 0, 6, 1, 0))  # right offset, other target: stays
    _lockstep(m, flat, ("release", 2, 2, 0, 2))  # the middle of extent 0: cut out
    assert m.lookup(0, 6) == [(0, 2, 0, 0), (4, 2, 0, 4)]


def test_seeded_ops_around_leaf_edges_match_the_flat_reference():
    rng = random.Random(0xED6E)
    m, flat = _edge_maps(leaves=6)
    for i in range(3000):
        edge = rng.choice(m._firsts)
        lba = max(0, edge + rng.randint(-30, 30))
        length = rng.randint(1, 40)
        pieces = m.lookup(lba - 10, 60)
        if pieces and rng.random() < 0.5:
            # continue a neighbour's translation: an update may join it, a
            # release may find pieces still mapped there
            near = rng.choice(pieces)
            target, offset = near.target, near.offset + (lba - near.lba)
        else:
            target, offset = rng.randrange(3), i * 1000
        roll = rng.random()
        kind = "update" if roll < 0.7 else "remove" if roll < 0.8 else "release"
        _lockstep(m, flat, (kind, lba, length, target, offset))
