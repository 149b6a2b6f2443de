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

import collections
import itertools
import random
from unittest import mock

import pytest

from repro.baselines.flat_extent_map import FlatExtentMap
from repro.core import extent_map
from repro.core.extent_map import Extent, ExtentMap

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
    else:
        got, want = m.remove(lba, length), flat.remove(lba, length)
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


def test_seeded_ops_around_leaf_edges_match_the_flat_reference():
    rng = random.Random(0xED6E)
    m, flat = _edge_maps(leaves=6)
    for i in range(3000):
        edge = rng.choice(m._firsts)
        lba = max(0, edge + rng.randint(-30, 30))
        length = rng.randint(1, 40)
        pieces = m.lookup(lba - 10, 60)
        if pieces and rng.random() < 0.5:
            # continue a neighbour's translation: an update may join it
            near = rng.choice(pieces)
            target, offset = near.target, near.offset + (lba - near.lba)
        else:
            target, offset = rng.randrange(3), i * 1000
        roll = rng.random()
        kind = "update" if roll < 0.7 else "remove"
        _lockstep(m, flat, (kind, lba, length, target, offset))


# ---------------------------------------------------------------------------
# read-cache-style updates into gaps beside removals of whole extents and
# their pieces, each replayed on the flat reference
# ---------------------------------------------------------------------------


def test_bursts_and_releases_match_the_flat_reference():
    rng = random.Random(0xB0057)
    m, flat = _edge_maps(leaves=6)
    releases = peak = 0
    for i in range(1500):
        span_end = m.bounds()[1] + 40
        roll = rng.random()
        if roll < 0.3:  # a burst: pieces into gaps, joining a neighbour, or overlapping
            for k in range(rng.randint(1, 12)):
                base = max(0, rng.choice((rng.choice(m._firsts), rng.randrange(span_end))) - 20)
                holes = [(s, n) for s, n, e in m.lookup_with_gaps(base, 40) if e is None]
                if holes and rng.random() < 0.8:  # into a gap, as a read-cache piece lands
                    s, n = rng.choice(holes)
                    lba = s + rng.randrange(n)
                    length = rng.randint(1, s + n - lba)
                else:
                    lba, length = base + rng.randrange(40), rng.randint(1, 6)
                near = m.lookup(max(0, lba - 8), 16) if rng.random() < 0.3 else []
                if near:  # continue a neighbour's translation: may join it
                    p = rng.choice(near)
                    target, offset = p.target, p.offset + (lba - p.lba)
                    if rng.random() < 0.2:
                        target = "b"  # ...into another target: may not
                else:
                    target, offset = rng.choice(("b", 0)), i * 1000 + k * 40
                assert m.update(lba, length, target, offset) == flat.update(
                    lba, length, target, offset
                )
            assert m.entries() == flat.entries()
            assert len(m) == len(flat) and m.mapped_bytes() == flat.mapped_bytes()
            _structural_invariants(m)
            peak = max(peak, len(m._chunks))
        elif roll < 0.65 and len(m):  # release one extent, its head or tail, a middle piece
            leaf = rng.choice(m._chunks)
            ext = rng.choice(leaf)
            lo = ext.lba + rng.choice((0, 0, rng.randrange(ext.length)))
            hi = rng.choice((ext.end, ext.end, rng.randint(lo + 1, ext.end)))
            _lockstep(m, flat, ("remove", lo, hi - lo, ext.target, ext.offset))
            releases += 1
        else:
            kind = "update" if rng.random() < 0.7 else "remove"
            lba = rng.randrange(span_end)
            _lockstep(m, flat, (kind, lba, rng.randint(1, 30), rng.randrange(3), i * 1000))
    # releases ran often, and the bursts split leaves
    assert releases > 400 and peak > 6


def test_releasing_every_extent_whole_empties_and_folds_leaves():
    m, flat = _edge_maps(leaves=4)
    rng = random.Random(5)
    extents = m.entries()
    rng.shuffle(extents)
    for seen, ext in enumerate(extents, 1):
        _lockstep(m, flat, ("remove", *ext))
        if seen == len(extents) * 7 // 8:
            assert len(m._chunks) < 4  # leaves shrunk below a quarter folded
    assert len(m) == 0 and m._chunks == []


# ---------------------------------------------------------------------------
# update's shape-first fast path (an exact replacement is one slot store, an
# insert into a gap one _leaf_insert) against its general path alone, op by
# op: every stream is replayed through update on one map and through
# _splice, the path every other shape takes, on a twin
# ---------------------------------------------------------------------------


def _gapped_rows(leaves: int):
    """``leaves`` full leaves of 6-long extents 10 apart from 1000 (room
    before the first), targets cycling over 0..2: nothing coalesces."""
    return [(1000 + 10 * i, 6, i % 3, 100 * i) for i in range(leaves * ExtentMap._CHUNK_TARGET)]


def _shape_ops(rng: random.Random, m: ExtentMap, n: int):
    """Yield ``n`` (tag, (lba, length, target, offset)) built against
    ``m``'s current state: exact rewrites and gap inserts (fresh, or
    continuing a neighbour so that they join it), the same at a leaf edge,
    inserts before the first extent, and what keeps the layout moving:
    ("other") partial overlaps and ("remove") holes punched in an extent."""
    for i in range(n):
        fresh = (rng.randrange(3), 10_000_000 + 1000 * i)
        chunks = m._chunks
        ci = rng.randrange(len(chunks))
        chunk = chunks[ci]
        k = rng.choice((0, len(chunk) - 1, rng.randrange(len(chunk))))  # leaf edges often
        ext = chunk[k]
        entries = [e for c in chunks[max(0, ci - 1) : ci + 2] for e in c]
        at = entries.index(ext)
        prev = entries[at - 1] if at else None
        nxt = entries[at + 1] if at + 1 < len(entries) else None
        roll = rng.random()
        if roll < 0.3:  # rewrite ext's range exactly
            lba, length = ext.lba, ext.length
            edge = k == 0 and ci > 0 or k == len(chunk) - 1 and ci + 1 < len(chunks)
            tag = "exact-edge" if edge else "exact"
            target, offset = fresh
            pick = rng.random()
            if pick < 0.3 and prev is not None and prev.end == lba:
                target, offset = prev.target, prev.offset + prev.length
                tag += "-join"
            elif pick < 0.6 and nxt is not None and nxt.lba == lba + length:
                target, offset = nxt.target, nxt.offset - length
                tag += "-join"
            yield tag, (lba, length, target, offset)
        elif roll < 0.65 and nxt is not None and nxt.lba > ext.end:  # the gap after ext
            lo, hi = ext.end, nxt.lba
            tag = "gap-edge" if k == len(chunk) - 1 else "gap"
            target, offset = fresh
            pick = rng.random()
            if pick < 0.25:  # continue ext
                lba, length = lo, rng.randint(1, hi - lo)
                target, offset = ext.target, ext.offset + ext.length
                tag += "-join"
            elif pick < 0.5:  # run into nxt, continuing it
                lba = rng.randrange(lo, hi)
                length = hi - lba
                target, offset = nxt.target, nxt.offset - length
                tag += "-join"
            else:
                lba = rng.randrange(lo, hi)
                length = rng.randint(1, hi - lba)
            yield tag, (lba, length, target, offset)
        elif 0.65 <= roll < 0.8 and chunks[0][0].lba > 0:  # before the first extent
            first = chunks[0][0]
            lba = max(0, first.lba - rng.randint(2, 12))
            length = rng.randint(1, first.lba - lba)
            target, offset = fresh
            tag = "first"
            if rng.random() < 0.3:
                length = first.lba - lba
                target, offset = first.target, first.offset - length
                tag += "-join"
            yield tag, (lba, length, target, offset)
        elif roll < 0.9 and ext.length > 2:  # punch a hole: one more extent, a new gap
            lba = ext.lba + rng.randrange(1, ext.length - 1)
            yield "remove", (lba, rng.randint(1, ext.end - lba - 1), None, None)
        else:  # overlaps a neighbour or two partially: the general path
            lba = max(0, ext.lba + rng.randint(-8, 8))
            yield "other", (lba, rng.randint(1, 24), *fresh)


def _dropping(drop):
    """``_adjacent`` for one ``update``, with its ``drop``-th join test (0:
    the left neighbour, 1: the right) answering "no join"; ``None``: none."""
    calls, real = itertools.count(), extent_map._adjacent
    return lambda a, b: False if next(calls) == drop else real(a, b)


def _run_against_the_general_path(drop=None):
    """Replay a seeded :func:`_shape_ops` stream over three leaves through
    ``update`` and, on a twin, through ``_splice`` alone; after every op,
    ``==`` on the displaced list, ``entries()``, ``len()``,
    ``mapped_bytes()`` and a lookup near the op; each ``update`` under
    ``_dropping(drop)``.  Returns how often each tag was seen, how often
    ``update`` did not reach ``_splice`` ("fast"), and how often it split
    a leaf doing so."""
    rows = _gapped_rows(leaves=3)
    m, ref = ExtentMap.from_entries(rows), ExtentMap.from_entries(rows)
    rng = random.Random(0x5A9E)
    seen = collections.Counter()
    for tag, (lba, length, target, offset) in _shape_ops(rng, ref, 3000):
        if tag == "remove":
            assert m.remove(lba, length) == ref.remove(lba, length)
            continue
        leaves = len(m._chunks)
        with mock.patch.object(m, "_splice", wraps=m._splice) as general:
            with mock.patch.object(extent_map, "_adjacent", _dropping(drop)):
                got = m.update(lba, length, target, offset)
        want = ref._splice(extent_map._new(Extent, (lba, length, target, offset)))
        assert got == want, (tag, lba, length)
        entries = m.entries()
        assert entries == ref.entries(), (tag, lba, length)
        assert len(m) == len(ref) and m.mapped_bytes() == ref.mapped_bytes()
        _structural_invariants(m)
        # and lookup, which answers a query one extent covers at once
        q, n = max(0, lba + rng.randint(-8, 4)), rng.choice((length, rng.randint(1, 24)))
        assert m.lookup(q, n) == [e.slice(q, n) for e in entries if e.lba < q + n and e.end > q]
        seen[tag] += 1
        seen["ops"] += 1
        seen["fast"] += not general.called
        seen["fast-split"] += not general.called and len(m._chunks) > leaves
    return seen


def test_update_fast_path_matches_the_general_path():
    seen = _run_against_the_general_path()
    for tag in ("exact", "gap", "exact-join", "gap-join", "first", "first-join", "other"):
        assert seen[tag] >= 20, (tag, seen)
    # joins with the previous leaf's tail (a leaf head rewritten) and the
    # next leaf's head (a leaf tail rewritten, a gap after it filled)
    for tag in ("exact-edge", "exact-edge-join", "gap-edge", "gap-edge-join"):
        assert seen[tag] >= 5, (tag, seen)
    assert seen["fast"] > seen["ops"] / 3
    assert seen["fast-split"] >= 2, seen  # gap inserts split a full leaf


@pytest.mark.parametrize("drop", [0, 1], ids=["left-join-dropped", "right-join-dropped"])
def test_the_stream_fails_when_update_drops_one_join_check(drop):
    with pytest.raises(AssertionError):
        _run_against_the_general_path(drop)


def test_exact_rewrites_and_gap_inserts_take_no_general_step():
    """The fast path guard: neither shape, when nothing joins, reaches
    ``_cut``, ``_replace_run``, ``_carve`` or ``_splice``."""
    m = ExtentMap.from_entries(_gapped_rows(leaves=4))
    spies = {
        name: mock.patch.object(m, name, wraps=getattr(m, name)).start()
        for name in ("_cut", "_replace_run", "_carve", "_splice")
    }
    try:
        rng = random.Random(11)
        for i in range(2000):
            ext = rng.choice(rng.choice(m._chunks))
            if i % 2:
                assert m.update(ext.lba, ext.length, ("x", i), 0) == [ext]
            elif m.lookup(ext.end, 1) == []:  # the address after ext is a gap
                assert m.update(ext.end, 1, ("y", i), 0) == []
        assert m.update(0, 10, "before-all", 0) == []
        assert len(m._chunks) > 4  # the gap inserts split leaves
    finally:
        mock.patch.stopall()
    assert {name: spy.call_count for name, spy in spies.items()} == dict.fromkeys(spies, 0)
