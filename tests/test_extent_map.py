"""Unit and property tests for the extent map."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extent_map import Extent, ExtentMap


def test_empty_map():
    m = ExtentMap()
    assert len(m) == 0
    assert m.lookup(0, 100) == []
    assert m.mapped_bytes() == 0
    assert m.bounds() == (0, 0)


def test_single_update_and_lookup():
    m = ExtentMap()
    assert m.update(100, 50, "a", 0) == []
    [ext] = m.lookup(100, 50)
    assert (ext.lba, ext.length, ext.target, ext.offset) == (100, 50, "a", 0)


def test_lookup_clips_to_query():
    m = ExtentMap()
    m.update(100, 100, "a", 0)
    [ext] = m.lookup(150, 10)
    assert (ext.lba, ext.length, ext.offset) == (150, 10, 50)


def test_lookup_before_and_after_misses():
    m = ExtentMap()
    m.update(100, 10, "a", 0)
    assert m.lookup(0, 100) == []
    assert m.lookup(110, 5) == []


def test_overwrite_middle_splits():
    m = ExtentMap()
    m.update(0, 100, "a", 0)
    displaced = m.update(40, 20, "b", 7)
    assert len(displaced) == 1
    assert (displaced[0].lba, displaced[0].length, displaced[0].target) == (40, 20, "a")
    exts = m.lookup(0, 100)
    assert [(e.lba, e.length, e.target, e.offset) for e in exts] == [
        (0, 40, "a", 0),
        (40, 20, "b", 7),
        (60, 40, "a", 60),
    ]


def test_overwrite_spanning_multiple():
    m = ExtentMap()
    m.update(0, 10, "a", 0)
    m.update(10, 10, "b", 0)
    m.update(20, 10, "c", 0)
    displaced = m.update(5, 20, "z", 0)
    assert {d.target for d in displaced} == {"a", "b", "c"}
    assert sum(d.length for d in displaced) == 20
    exts = m.lookup(0, 30)
    assert [(e.lba, e.length, e.target) for e in exts] == [
        (0, 5, "a"),
        (5, 20, "z"),
        (25, 5, "c"),
    ]


def test_exact_overwrite_displaces_all():
    m = ExtentMap()
    m.update(10, 10, "a", 0)
    displaced = m.update(10, 10, "b", 0)
    assert len(displaced) == 1 and displaced[0].target == "a"
    assert len(m) == 1


def test_coalesce_adjacent_same_target_contiguous_offset():
    m = ExtentMap()
    m.update(0, 10, "a", 0)
    m.update(10, 10, "a", 10)
    assert len(m) == 1
    [ext] = m.lookup(0, 20)
    assert (ext.lba, ext.length, ext.offset) == (0, 20, 0)


def test_no_coalesce_when_offsets_not_contiguous():
    m = ExtentMap()
    m.update(0, 10, "a", 0)
    m.update(10, 10, "a", 100)
    assert len(m) == 2


def test_no_coalesce_different_targets():
    m = ExtentMap()
    m.update(0, 10, "a", 0)
    m.update(10, 10, "b", 10)
    assert len(m) == 2


def test_coalesce_filling_gap_merges_three():
    m = ExtentMap()
    m.update(0, 10, "a", 0)
    m.update(20, 10, "a", 20)
    m.update(10, 10, "a", 10)
    assert len(m) == 1


def test_remove_punches_hole():
    m = ExtentMap()
    m.update(0, 30, "a", 0)
    removed = m.remove(10, 10)
    assert len(removed) == 1 and removed[0].length == 10
    assert [(e.lba, e.length) for e in m.lookup(0, 30)] == [(0, 10), (20, 10)]


def test_remove_unmapped_is_noop():
    m = ExtentMap()
    m.update(0, 10, "a", 0)
    assert m.remove(100, 10) == []
    assert len(m) == 1


def test_lookup_with_gaps_covers_range():
    m = ExtentMap()
    m.update(10, 10, "a", 0)
    m.update(30, 10, "b", 0)
    pieces = m.lookup_with_gaps(0, 50)
    assert [(s, l, e.target if e else None) for s, l, e in pieces] == [
        (0, 10, None),
        (10, 10, "a"),
        (20, 10, None),
        (30, 10, "b"),
        (40, 10, None),
    ]


def test_lookup_strictly_before_first_extent():
    """Regression: a query entirely below the first mapped extent.

    The flat-list ancestor clamped a -1 bisect result to index 0, which
    silently worked; the chunked layout handles the no-predecessor case
    explicitly (see ExtentMap._start_pos).  Both the miss and the
    partial-overlap-from-below shapes must behave.
    """
    m = ExtentMap()
    m.update(1000, 50, "a", 0)
    m.update(2000, 50, "b", 0)
    assert m.lookup(0, 500) == []
    assert m.remove(0, 500) == []
    # query starting strictly before the first extent but reaching into it
    [ext] = m.lookup(900, 150)
    assert (ext.lba, ext.length, ext.target) == (1000, 50, "a")
    # update landing entirely before the first extent displaces nothing
    assert m.update(0, 10, "z", 0) == []
    assert [e.lba for e in m] == [0, 1000, 2000]


def test_slice_requires_overlap():
    ext = Extent(0, 10, "a", 0)
    with pytest.raises(ValueError):
        ext.slice(20, 5)


def test_entries_roundtrip():
    m = ExtentMap()
    m.update(0, 10, 1, 0)
    m.update(20, 5, 2, 100)
    m2 = ExtentMap.from_entries(m.entries())
    assert m2.entries() == m.entries()


def test_from_entries_rejects_overlap():
    with pytest.raises(ValueError):
        ExtentMap.from_entries([(0, 10, 1, 0), (5, 10, 2, 0)])


def test_from_entries_coalesces_adjacent_same_target_runs():
    """An old checkpoint may contain mergeable neighbours; restore must
    fold them so the restored map matches what a live map would hold."""
    m = ExtentMap.from_entries(
        [
            (0, 10, "a", 0),
            (10, 10, "a", 10),  # contiguous with the previous: merges
            (20, 10, "a", 100),  # offset breaks contiguity: stays
            (30, 10, "b", 110),  # target changes: stays
            (50, 10, "b", 120),  # gap: stays
        ]
    )
    assert m.entries() == [
        (0, 20, "a", 0),
        (20, 10, "a", 100),
        (30, 10, "b", 110),
        (50, 10, "b", 120),
    ]
    assert m.mapped_bytes() == 50


def test_from_entries_restore_is_idempotent():
    m = ExtentMap()
    for i in range(500):
        m.update(i * 7, 5, i % 3, i * 100)
    once = ExtentMap.from_entries(m.entries())
    assert once.entries() == m.entries()
    twice = ExtentMap.from_entries(once.entries())
    assert twice.entries() == once.entries()
    assert twice.mapped_bytes() == m.mapped_bytes()


# ---------------------------------------------------------------------------
# multi-chunk behaviour: force the map past one leaf (chunk bound is 256)
# ---------------------------------------------------------------------------


def _chunk_invariants(m):
    """The structural invariants of the chunked layout."""
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
                assert e.lba >= prev_end
            prev_end = e.end
        total += len(chunk)
    assert total == len(m)
    assert m.mapped_bytes() == sum(e.length for e in m)


def test_multi_chunk_split_and_iteration_order():
    m = ExtentMap()
    n = 1000  # isolated extents: forces several leaf splits
    for i in range(n):
        m.update(i * 10, 5, i, 0)
    assert len(m) == n
    assert len(m._chunks) > 1
    assert [e.lba for e in m] == [i * 10 for i in range(n)]
    _chunk_invariants(m)


def test_multi_chunk_carve_spanning_chunks():
    m = ExtentMap()
    n = 1000
    for i in range(n):
        m.update(i * 10, 5, i, 0)
    # carve a range spanning many leaves in one call: [95, 4995) overlaps
    # the 490 extents with lba 100..4990
    displaced = m.remove(95, 4900)
    assert sum(d.length for d in displaced) == 5 * 490
    assert [e.lba for e in m.lookup(0, 200)] == [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]
    _chunk_invariants(m)


def test_multi_chunk_overwrite_everything_collapses_to_one():
    m = ExtentMap()
    for i in range(600):
        m.update(i * 10, 10, i, 0)
    assert len(m._chunks) > 1
    displaced = m.update(0, 6000, "big", 0)
    assert sum(d.length for d in displaced) == 6000
    assert len(m) == 1
    assert len(m._chunks) == 1
    _chunk_invariants(m)


def test_multi_chunk_fold_after_heavy_removal():
    m = ExtentMap()
    for i in range(1000):
        m.update(i * 10, 5, i, 0)
    chunks_before = len(m._chunks)
    # remove 7 of every 8 extents in scattered small carves; the shrunken
    # leaves must fold into their neighbours instead of lingering
    for i in range(1000):
        if i % 8 != 3:
            m.remove(i * 10, 10)
    _chunk_invariants(m)
    assert len(m) == 125
    assert len(m._chunks) < chunks_before


def test_multi_chunk_coalesce_across_chunk_boundary():
    """Sequential same-target writes must merge even when the neighbour
    sits in the previous leaf chunk."""
    m = ExtentMap()
    for i in range(2000):
        m.update(i * 10, 10, "seq", i * 10)
    assert len(m) == 1  # everything contiguous: one extent survives
    assert m.mapped_bytes() == 20000
    _chunk_invariants(m)


def test_leaves_stay_bounded_and_balanced_at_100k_extents():
    """Scale without a clock: what makes an update O(leaf) is structural.

    After 20 000 seeded mixed operations on 100 000 bulk-loaded extents:
    the leaf bound and index mirrors (``_chunk_invariants``), and balance.
    Unaligned updates split extents (leaves grow and must split); removes
    run up to 128 extents long (leaves shrink and must fold — without
    ``_maybe_fold`` this run ends at 502 leaves, bound 385; with it, 181).
    """
    ext, n = 8, 100_000
    m = ExtentMap.from_entries([(i * ext, ext, i % 64, 0) for i in range(n)])
    assert len(m) == n
    rng = random.Random(20)
    span = n * ext
    for _ in range(20_000):
        roll = rng.random()
        lba = rng.randrange(0, span - 8 * ext)
        if roll < 0.6:
            m.update(lba, ext, rng.randrange(64), 0)
        elif roll < 0.8:
            m.remove(lba, rng.randrange(1, 128 * ext))
        else:
            pieces = m.lookup(lba, 8 * ext)
            assert all(lba < p.end and p.lba < lba + 8 * ext for p in pieces)
    _chunk_invariants(m)
    assert len(m._chunks) <= 4 * len(m) / m._CHUNK_TARGET


def test_zero_length_lookup_empty():
    m = ExtentMap()
    m.update(0, 10, "a", 0)
    assert m.lookup(0, 0) == []


def test_carve_rejects_nonpositive_length():
    m = ExtentMap()
    with pytest.raises(ValueError):
        m.remove(0, 0)


# ---------------------------------------------------------------------------
# property tests: the map must agree with a naive per-address model
# ---------------------------------------------------------------------------

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["update", "remove"]),
        st.integers(min_value=0, max_value=200),  # lba
        st.integers(min_value=1, max_value=60),  # length
        st.integers(min_value=0, max_value=5),  # target id
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=ops_strategy)
def test_map_matches_naive_model(ops):
    m = ExtentMap()
    model = {}  # addr -> (target, byte-within-target)
    for i, (op, lba, length, target) in enumerate(ops):
        if op == "update":
            offset = i * 1000  # distinct offsets per op
            m.update(lba, length, target, offset)
            for a in range(lba, lba + length):
                model[a] = (target, offset + (a - lba))
        else:
            m.remove(lba, length)
            for a in range(lba, lba + length):
                model.pop(a, None)
    # compare address by address
    for addr in range(0, 261):
        pieces = m.lookup(addr, 1)
        if addr in model:
            assert len(pieces) == 1
            ext = pieces[0]
            assert (ext.target, ext.offset) == model[addr]
        else:
            assert pieces == []


@settings(max_examples=100, deadline=None)
@given(ops=ops_strategy)
def test_map_invariants_sorted_nonoverlapping(ops):
    m = ExtentMap()
    for i, (op, lba, length, target) in enumerate(ops):
        if op == "update":
            m.update(lba, length, target, i * 1000)
        else:
            m.remove(lba, length)
        exts = list(m)
        for a, b in zip(exts, exts[1:]):
            assert a.end <= b.lba, "extents must be sorted and disjoint"
        # coalescing invariant: no two mergeable neighbours remain
        for a, b in zip(exts, exts[1:]):
            mergeable = (
                a.end == b.lba
                and a.target == b.target
                and a.offset + a.length == b.offset
            )
            assert not mergeable, "adjacent extents should have been merged"


@settings(max_examples=100, deadline=None)
@given(ops=ops_strategy)
def test_displaced_bytes_conserve_mapped_total(ops):
    m = ExtentMap()
    mapped = 0
    for i, (op, lba, length, target) in enumerate(ops):
        if op == "update":
            displaced = m.update(lba, length, target, i * 1000)
            mapped += length - sum(d.length for d in displaced)
        else:
            displaced = m.remove(lba, length)
            mapped -= sum(d.length for d in displaced)
        assert m.mapped_bytes() == mapped
