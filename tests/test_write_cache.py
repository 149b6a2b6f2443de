"""Tests for the log-structured write-back cache (Figure 2, §3.1, §3.3)."""

import random

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.core import checkpoint as ckpt
from repro.core.config import BLOCK
from repro.core.errors import CacheFullError
from repro.core.log import decode_record, encode_record, pack_record
from repro.core.write_cache import WriteCache
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


def make_cache(size=8 * MiB, slot=256 * 1024):
    img = DiskImage(size, name="cache-ssd")
    wc = WriteCache(img, 0, size, ckpt_slot_size=slot)
    wc.format()
    return wc


def test_append_and_read_back():
    wc = make_cache()
    wc.append([(4096, b"A" * 4096)])
    [(lba, length, data)] = wc.read(4096, 4096)
    assert (lba, length) == (4096, 4096)
    assert data == b"A" * 4096


def test_append_assigns_monotonic_seqs():
    wc = make_cache()
    r1 = wc.append([(0, b"a" * 512)])
    r2 = wc.append([(4096, b"b" * 512)])
    assert r2.seq == r1.seq + 1


def test_overwrite_serves_newest():
    wc = make_cache()
    wc.append([(0, b"old!" * 128)])
    wc.append([(0, b"new!" * 128)])
    [(_, _, data)] = wc.read(0, 512)
    assert data == b"new!" * 128


def test_partial_overwrite_mix():
    wc = make_cache()
    wc.append([(0, b"A" * 1024)])
    wc.append([(512, b"B" * 512)])
    pieces = wc.read(0, 1024)
    image = bytearray(1024)
    for lba, length, data in pieces:
        image[lba : lba + length] = data
    assert bytes(image) == b"A" * 512 + b"B" * 512


def test_read_gap_returns_nothing():
    wc = make_cache()
    wc.append([(0, b"x" * 512)])
    assert wc.read(1 << 20, 512) == []


def test_sequential_layout_on_ssd():
    """Records land at strictly increasing physical offsets (the log)."""
    wc = make_cache()
    offsets = []
    for i in range(10):
        before = wc.head_virt
        wc.append([(i * 123 * 4096, b"z" * 4096)])
        offsets.append(before)
    assert offsets == sorted(offsets)


def test_release_through_frees_space_and_map():
    wc = make_cache()
    r1 = wc.append([(0, b"a" * 4096)])
    r2 = wc.append([(8192, b"b" * 4096)])
    used_before = wc.used_bytes
    freed = wc.release_through(r1.seq)
    assert freed > 0
    assert wc.used_bytes < used_before
    assert wc.read(0, 4096) == []  # record 1's mapping dropped
    assert wc.read(8192, 4096) != []  # record 2 still live


def test_release_keeps_newer_overwrite():
    """Releasing an old record must not drop a newer mapping for the
    same LBA that lives in a later record."""
    wc = make_cache()
    r1 = wc.append([(0, b"old." * 1024)])
    wc.append([(0, b"new." * 1024)])
    wc.release_through(r1.seq)
    [(_, _, data)] = wc.read(0, 4096)
    assert data == b"new." * 1024


def test_release_skips_a_record_whose_slot_was_reused():
    wc = make_cache()
    r1 = wc.append([(0, b"a" * 4096)])
    wc.append([(8192, b"b" * 4096)])
    # a record with another sequence number now occupies record 1's slot
    wc.image.write(wc._phys(r1.virt), encode_record(pack_record(r1.seq + 7, [(0, b"x" * 4096)])))
    before = wc.map.entries()
    assert wc.release_through(r1.seq) == r1.size
    assert wc.map.entries() == before


def test_release_drops_entries_of_a_record_whose_payload_rotted():
    """Deliberate change: the reuse guard reads the fixed-size header only.

    The full CRC decode it replaced took a record with flipped payload
    bytes for reused space and kept its map entries, which then pointed
    into log space about to be reused by newer records.
    """
    wc = make_cache()
    r1 = wc.append([(0, b"a" * 4096), (16384, b"c" * 512)])
    phys = wc._phys(r1.virt)
    data_at = phys + r1.extents[0][2]
    wc.image.write(data_at, bytes([wc.image.read(data_at, 1)[0] ^ 0xFF]))
    assert decode_record(wc.image.read(phys, r1.size)) is None  # CRC fails
    wc.release_through(r1.seq)
    assert len(wc.map) == 0


def test_cache_full_raises():
    wc = make_cache(size=2 * MiB, slot=64 * 1024)
    with pytest.raises(CacheFullError):
        for i in range(10_000):
            wc.append([(i * 4096, b"f" * 4096)])


def test_wraparound_after_release():
    """The ring reuses freed space across the wrap boundary."""
    wc = make_cache(size=2 * MiB, slot=64 * 1024)
    seqs = []
    for round_ in range(6):  # writes far exceed the log size
        try:
            for i in range(50):
                rec = wc.append([(i * 4096, bytes([round_]) * 4096)])
                seqs.append(rec.seq)
        except CacheFullError:
            wc.release_through(seqs[-10])  # destage all but the last few
    assert wc.head_virt > wc.log_size  # wrapped at least once


def test_dirty_bytes_tracks_unreleased():
    wc = make_cache()
    assert wc.dirty_bytes == 0
    rec = wc.append([(0, b"d" * 4096)])
    assert wc.dirty_bytes > 0
    wc.release_through(rec.seq)
    assert wc.dirty_bytes == 0


def test_barrier_flushes_image():
    wc = make_cache()
    wc.append([(0, b"d" * 4096)])
    assert wc.image.pending_writes > 0
    wc.barrier()
    assert wc.image.pending_writes == 0


# -- recovery ----------------------------------------------------------------


def recover_copy(wc):
    """Build a fresh WriteCache over the same image and recover it."""
    fresh = WriteCache(wc.image, wc.region_offset, wc.region_size, wc.slot_size)
    fresh.recover()
    return fresh


def test_recover_from_checkpoint_only():
    wc = make_cache()
    wc.append([(0, b"a" * 4096)])
    wc.append([(8192, b"b" * 4096)])
    wc.barrier()
    wc.checkpoint()
    fresh = recover_copy(wc)
    assert [r.seq for r in fresh.records] == [r.seq for r in wc.records]
    [(_, _, data)] = fresh.read(0, 4096)
    assert data == b"a" * 4096


def test_recover_replays_records_after_checkpoint():
    wc = make_cache()
    wc.append([(0, b"a" * 4096)])
    wc.checkpoint()
    wc.append([(8192, b"b" * 4096)])
    wc.append([(16384, b"c" * 4096)])
    wc.barrier()
    fresh = recover_copy(wc)
    assert len(fresh.records) == 3
    assert fresh.next_seq == wc.next_seq
    [(_, _, data)] = fresh.read(16384, 4096)
    assert data == b"c" * 4096


def test_recover_stops_at_torn_record():
    """Crash without flush: recovery takes the valid prefix only."""
    wc = make_cache()
    wc.append([(0, b"a" * 4096)])
    wc.barrier()  # record 1 durable
    wc.append([(8192, b"b" * 4096)])  # record 2 pending
    wc.image.crash(
        rng=random.Random(3), survive_probability=0.0, allow_torn=False
    )
    fresh = recover_copy(wc)
    assert len(fresh.records) == 1
    assert fresh.read(8192, 4096) == []
    [(_, _, data)] = fresh.read(0, 4096)
    assert data == b"a" * 4096


def test_recover_prefix_when_middle_record_lost():
    """If record N is lost but N+1 survived, replay must stop at N-1."""
    wc = make_cache()
    wc.append([(0, b"a" * 4096)])
    wc.barrier()
    wc.append([(8192, b"b" * 4096)])  # lost
    wc.append([(16384, b"c" * 4096)])  # survives
    # keep only the third record's write: crash keeping pending[1]
    pending = wc.image._pending
    assert len(pending) == 2
    wc.image._pending = [pending[1]]
    wc.image.crash(rng=random.Random(0), survive_probability=1.0, allow_torn=False)
    fresh = recover_copy(wc)
    assert [r.seq for r in fresh.records] == [1]
    assert fresh.read(16384, 4096) == []


def test_recover_survives_many_random_crashes():
    rng = random.Random(42)
    for trial in range(15):
        wc = make_cache(size=4 * MiB, slot=128 * 1024)
        expected = {}
        durable_upto = 0
        for i in range(30):
            lba = rng.randrange(0, 64) * 4096
            data = bytes([i + 1]) * 4096
            rec = wc.append([(lba, data)])
            expected[rec.seq] = (lba, data)
            if rng.random() < 0.3:
                wc.barrier()
                durable_upto = rec.seq
        wc.image.crash(rng=rng)
        fresh = recover_copy(wc)
        recovered = {r.seq for r in fresh.records}
        # all records up to the last barrier must be there (committed)
        assert set(range(1, durable_upto + 1)) <= recovered
        # recovered records form a consecutive prefix
        assert recovered == set(range(1, len(recovered) + 1))
        # and their content is intact
        replay = {}
        for record, _ref in fresh.records_after(0):
            for idx, (lba, length) in enumerate(record.extents):
                replay[lba] = fresh.record_data(record, idx)
        for seq in sorted(recovered):
            lba, data = expected[seq]
            # newest-wins: only check lbas whose final writer is <= prefix
            final_writer = max(s for s, (l, _d) in expected.items() if l == lba)
            if final_writer <= len(recovered):
                assert replay[lba] == expected[final_writer][1]


def test_recover_multi_chunk_map_checkpoint_plus_replay():
    """Recovery must rebuild a map that spans several leaf chunks.

    ~300 scattered extents push the checkpointed extent map past one
    256-extent leaf; ~60 more records after the checkpoint exercise the
    replay path on the restored (bulk-loaded) map.  The recovered map
    must equal the live one entry for entry.
    """
    wc = make_cache(size=16 * MiB, slot=512 * 1024)
    for i in range(300):
        # stride 2 blocks: extents never touch, so none coalesce away
        wc.append([(i * 8192, bytes([i % 255 + 1]) * 4096)])
    wc.barrier()
    wc.checkpoint()
    assert len(wc.map._chunks) > 1, "test must span multiple leaf chunks"
    for i in range(60):
        wc.append([((300 + i) * 8192, bytes([(i + 7) % 255 + 1]) * 4096)])
    wc.barrier()
    fresh = recover_copy(wc)
    assert len(fresh.records) == 360
    assert fresh.map.entries() == wc.map.entries()
    assert fresh.map.mapped_bytes() == wc.map.mapped_bytes()
    assert len(fresh.map._chunks) > 1
    # spot-check payloads through the recovered map
    for i in (0, 255, 299, 310, 359):
        [(_, _, data)] = fresh.read(i * 8192, 4096)
        expected = (
            bytes([i % 255 + 1]) if i < 300 else bytes([(i - 300 + 7) % 255 + 1])
        ) * 4096
        assert data == expected


def test_recover_accepts_a_slot_that_still_carries_a_map_section():
    """A slot in the older format (meta, map, records) must still mount.

    Recovery re-derives the map from the records that decode, so a saved
    one is ignored — even a wrong one: the bogus row must not surface.
    """
    wc = make_cache()
    wc.append([(0, b"a" * 4096)])
    wc.append([(8192, b"b" * 4096)])
    wc.barrier()
    wc.checkpoint()
    offset = wc.region_offset + BLOCK + (wc._ckpt_seq % 2) * wc.slot_size
    sections = ckpt.decode_sections(wc.image.read(offset, wc.slot_size))
    assert sorted(sections) == ["meta", "records"]
    rows = [(e.lba, e.length, e.offset) for e in wc.map] + [(1 << 20, 4096, 0)]
    old_format = {
        "meta": sections["meta"],
        "map": ckpt.pack_rows("<QQQ", rows),
        "records": sections["records"],
    }
    wc.image.write(offset, ckpt.encode_sections(old_format))
    wc.image.flush()
    wc.append([(16384, b"c" * 4096)])  # replayed past the old-format slot
    wc.barrier()
    fresh = recover_copy(wc)
    assert [r.seq for r in fresh.records] == [1, 2, 3]
    assert fresh.map.entries() == wc.map.entries()
    assert fresh.read(1 << 20, 4096) == []


def test_recovered_record_refs_equal_the_appended_ones():
    """Checkpointed and replayed records come back with the sizes and the
    per-extent layout ``append`` gave them (the replay measures a record
    by its decoded size, not by encoding it again)."""
    wc = make_cache()
    wc.append([(0, b"a" * 512)])
    wc.checkpoint()
    wc.append([(4096, b"b" * 4096)])
    wc.append([(0, b"c" * 100), (65536, b"d" * 9000), (8192, b"e" * 4096)])
    wc.barrier()
    fresh = recover_copy(wc)
    assert fresh.records == wc.records
    assert [len(r.extents) for r in fresh.records] == [1, 1, 3]


def test_crash_recover_destage_release_empties_the_map():
    """The record refs recovery rebuilds carry their extents: once the
    backend holds their data, releasing them leaves no map entry behind."""
    store, image = InMemoryObjectStore(), DiskImage(8 * MiB, name="cache")
    config = LSVDConfig(batch_size=1 * MiB, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", 8 * MiB, image, config)
    rng = random.Random(7)
    oracle = {}
    for i in range(300):
        lba = rng.randrange(256) * 4096
        oracle[lba] = bytes([i % 251 + 1]) * 4096
        vol.write(lba, oracle[lba])
    vol.flush()
    image.crash(rng=rng)
    vol = LSVDVolume.open(store, "vd", image, config)
    assert vol.wc.records and len(vol.wc.map) > 0
    vol.drain()  # destage: every record's data settles in the backend
    assert vol.wc.records == [] and len(vol.wc.map) == 0
    for lba, data in oracle.items():
        assert vol.read(lba, 4096) == data


def test_records_after_filters_by_seq():
    wc = make_cache()
    wc.append([(0, b"a" * 512)])
    wc.append([(4096, b"b" * 512)])
    wc.append([(8192, b"c" * 512)])
    seqs = [rec.seq for rec, _ in wc.records_after(1)]
    assert seqs == [2, 3]


def test_checkpoint_alternates_slots_and_newest_wins():
    wc = make_cache()
    wc.append([(0, b"a" * 512)])
    wc.checkpoint()
    wc.append([(4096, b"b" * 512)])
    wc.checkpoint()
    fresh = recover_copy(wc)
    assert len(fresh.records) == 2


def test_clean_close_sets_flag():
    wc = make_cache()
    wc.append([(0, b"a" * 512)])
    wc.close()
    fresh = WriteCache(wc.image, 0, wc.region_size, wc.slot_size)
    fresh.recover()
    assert fresh._clean in (True, False)  # flag readable; semantics in volume


def test_region_too_small_rejected():
    img = DiskImage(64 * 1024)
    with pytest.raises(ValueError):
        WriteCache(img, 0, 64 * 1024, ckpt_slot_size=32 * 1024)
