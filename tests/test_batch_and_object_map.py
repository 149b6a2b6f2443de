"""Tests for write batching (merge/coalescing) and the object map."""

import pytest

from repro.core.batch import seal_gc_batch
from repro.core.block_store import BlockStore
from repro.core.config import LSVDConfig
from repro.core.log import KIND_DATA, KIND_GC, decode_object
from repro.core.object_map import ObjectMap
from repro.objstore import InMemoryObjectStore
from tests.cache_log import log_write

UUID = b"\x01" * 16


def make_store(batch_size):
    config = LSVDConfig(batch_size=batch_size, placement="legacy")
    return BlockStore.create(InMemoryObjectStore(), "vol", 1 << 20, config)


def seal(bs):
    [sealed] = bs.seal_all()
    return sealed


# -- WriteBatch ---------------------------------------------------------------


def test_batch_accumulates_and_seals():
    bs = make_store(batch_size=8192)
    assert log_write(bs, 0, b"a" * 4096) == []
    [sealed] = log_write(bs, 4096, b"b" * 4096)
    assert sealed.seq == 2  # the creation checkpoint took 1
    assert sealed.bytes_in == 8192
    assert sealed.bytes_out == 8192
    assert sealed.last_record_seq == 2
    assert all(b.is_empty for b in bs.batches.values())


def test_batch_coalesces_overwrites_within_batch():
    """§3.1: writes may be coalesced within a single batch."""
    bs = make_store(batch_size=1 << 20)
    log_write(bs, 0, b"old" + b"\x00" * 509)
    log_write(bs, 0, b"new" + b"\x00" * 509)
    sealed = seal(bs)
    assert sealed.bytes_in == 1024
    assert sealed.bytes_out == 512  # half eliminated
    assert sealed.merged_bytes == 512
    header, data = decode_object(sealed.payload)
    assert data[:3] == b"new"


def test_batch_partial_overlap_keeps_fragments():
    bs = make_store(batch_size=1 << 20)
    log_write(bs, 0, b"A" * 1024)
    log_write(bs, 512, b"B" * 1024)
    sealed = seal(bs)
    header, data = decode_object(sealed.payload)
    assert sealed.bytes_out == 1536
    # reconstruct the logical content
    image = bytearray(1536)
    off = 0
    for ext in header.extents:
        image[ext.lba : ext.lba + ext.length] = data[off : off + ext.length]
        off += ext.length
    assert bytes(image) == b"A" * 512 + b"B" * 1024


def test_batch_empty_write_rejected():
    bs = make_store(batch_size=4096)
    with pytest.raises(ValueError):
        log_write(bs, 0, b"")
    assert all(b.is_empty for b in bs.batches.values())


def test_batch_payload_decodes_with_correct_extents():
    bs = make_store(batch_size=1 << 20)
    for _ in range(8):  # records 1-8 go to an earlier object
        log_write(bs, 0, b"x" * 512)
    bs.commit(seal(bs))
    log_write(bs, 8192, b"y" * 512)
    sealed = seal(bs)
    header, data = decode_object(sealed.payload)
    assert header.kind == KIND_DATA
    assert header.seq == 3
    assert header.last_record_seq == 9
    assert [(e.lba, e.length) for e in header.extents] == [(8192, 512)]


def test_seal_gc_batch_records_sources():
    pieces = [(0, 512, 3, b"a" * 512), (4096, 512, 7, b"b" * 512)]
    sealed = seal_gc_batch(10, UUID, pieces, last_record_seq=0)
    header, data = decode_object(sealed.payload)
    assert header.kind == KIND_GC
    assert [e.src_seq for e in header.extents] == [3, 7]
    assert data == b"a" * 512 + b"b" * 512


# -- ObjectMap ----------------------------------------------------------------


def make_map():
    om = ObjectMap()
    om.add_object(1, KIND_DATA, data_bytes=1000, extents=[])
    om.add_object(2, KIND_DATA, data_bytes=1000, extents=[])
    return om


def test_object_map_accounting_on_overwrite():
    om = make_map()
    om.apply_extent(1, lba=0, length=1000, offset=0)
    assert om.objects[1].live_bytes == 1000
    om.apply_extent(2, lba=0, length=400, offset=0)
    assert om.objects[1].live_bytes == 600
    assert om.objects[2].live_bytes == 400


def test_object_map_utilization():
    om = make_map()
    om.apply_extent(1, 0, 1000, 0)
    om.apply_extent(2, 0, 500, 0)
    # object 1: 500/1000 live; object 2: 500/1000 live
    assert om.utilization() == pytest.approx(0.5)
    assert om.objects[1].utilization == pytest.approx(0.5)


def test_object_map_duplicate_seq_rejected():
    om = make_map()
    with pytest.raises(ValueError):
        om.add_object(1, KIND_DATA, 10, [])


def test_cleaning_candidates_sorted_by_utilization():
    om = make_map()
    om.add_object(3, KIND_DATA, data_bytes=1000, extents=[])
    om.apply_extent(1, 0, 1000, 0)
    om.apply_extent(2, 1000, 1000, 0)
    om.apply_extent(3, 0, 900, 0)  # object 1 drops to 100 live
    cands = om.cleaning_candidates()
    assert [c.seq for c in cands] == [1, 3, 2]


def test_cleaning_candidates_skip_base_and_excluded():
    om = make_map()
    om.objects[1].in_base = True
    om.apply_extent(1, 0, 100, 0)
    om.apply_extent(2, 1000, 100, 0)
    assert [c.seq for c in om.cleaning_candidates()] == [2]
    assert om.cleaning_candidates(exclude=[2]) == []


def test_gc_extent_applies_only_where_source_still_mapped():
    om = make_map()
    om.add_object(10, KIND_GC, data_bytes=1000, extents=[])
    om.apply_extent(1, 0, 1000, 0)
    om.apply_extent(2, 200, 100, 0)  # newer data in the middle
    moved = om.apply_gc_extent(10, 0, 1000, 0, src_seq=1)
    assert moved == 900  # the 100 bytes now owned by object 2 stay put
    assert om.objects[2].live_bytes == 100
    assert om.objects[1].live_bytes == 0
    assert om.objects[10].live_bytes == 900
    [mid] = om.lookup(200, 100)
    assert mid.target == 2


def test_trim_decrements_live():
    om = make_map()
    om.apply_extent(1, 0, 1000, 0)
    om.trim(0, 250)
    assert om.objects[1].live_bytes == 750
    assert om.lookup(0, 250) == []


def test_live_extents_of_reports_surviving_ranges():
    from repro.core.log import ObjectExtent

    om = ObjectMap()
    om.add_object(1, KIND_DATA, 1000, extents=[ObjectExtent(0, 1000, 0)])
    om.add_object(2, KIND_DATA, 100, extents=[ObjectExtent(300, 100, 0)])
    om.apply_extent(1, 0, 1000, 0)
    om.apply_extent(2, 300, 100, 0)
    live = om.live_extents_of(1)
    assert [(lba, length) for lba, length, _off in live] == [(0, 300), (400, 600)]
    # offsets locate the data inside object 1
    assert [off for _l, _n, off in live] == [0, 400]


def test_restore_roundtrip():
    om = make_map()
    om.apply_extent(1, 0, 600, 0)
    om.apply_extent(2, 600, 300, 0)
    om2 = ObjectMap.restore(om.entries(), om.object_table(), {})
    assert om2.entries() == om.entries()
    assert om2.object_table() == om.object_table()
    assert om2.utilization() == om.utilization()


def test_negative_live_bytes_is_fatal():
    om = make_map()
    om.apply_extent(1, 0, 100, 0)
    om.objects[1].live_bytes = 0  # corrupt the accounting
    with pytest.raises(AssertionError):
        om.apply_extent(2, 0, 100, 0)
