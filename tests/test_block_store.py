"""Tests for the log-structured block store: stream, recovery, clones."""

import pytest

from repro.core.block_store import BlockStore
from repro.core.config import LSVDConfig
from repro.core.errors import (
    SnapshotInUseError,
    VolumeExistsError,
    VolumeNotFoundError,
)
from repro.core.gc import GarbageCollector
from repro.core.log import object_name
from repro.objstore import InMemoryObjectStore, UnsettledObjectStore
from tests.cache_log import log_write

MiB = 1 << 20


def small_config(**kw):
    defaults = dict(batch_size=64 * 1024, checkpoint_interval=1000)
    defaults.update(kw)
    return LSVDConfig(**defaults)


def make_store(store=None, name="vol", size=64 * MiB, **kw):
    store = store if store is not None else InMemoryObjectStore()
    bs = BlockStore.create(store, name, size, small_config(**kw))
    return store, bs


def fill(bs, n_writes=40, size=4096, stride=8192):
    """Write n sequential-ish extents, sealing/committing as needed."""
    for i in range(n_writes):
        sealed = log_write(bs, i * stride, bytes([i % 255 + 1]) * size)
        for batch in sealed:
            bs.commit(batch)
    for sealed in bs.seal_all():
        bs.commit(sealed)


def read_all(bs, lba, length):
    out = bytearray(length)
    for ext in bs.lookup(lba, length):
        data = bs.fetch(ext.target, ext.offset, ext.length)
        out[ext.lba - lba : ext.lba - lba + ext.length] = data
    return bytes(out)


def test_create_writes_superblock_and_checkpoint():
    store, bs = make_store()
    assert store.exists("vol.super")
    assert store.exists(object_name("vol", 1))
    meta = BlockStore.read_super(store, "vol")
    assert meta["size"] == 64 * MiB
    assert meta["last_ckpt_seq"] == 1


def test_create_twice_rejected():
    store, bs = make_store()
    with pytest.raises(VolumeExistsError):
        BlockStore.create(store, "vol", MiB)


def test_open_missing_volume():
    with pytest.raises(VolumeNotFoundError):
        BlockStore.open(InMemoryObjectStore(), "ghost")


def test_write_read_roundtrip_through_objects():
    store, bs = make_store()
    fill(bs, n_writes=20)
    assert read_all(bs, 0, 4096) == bytes([1]) * 4096
    assert read_all(bs, 5 * 8192, 4096) == bytes([6]) * 4096


def test_batch_seal_at_size():
    store, bs = make_store()
    sealed = []
    for i in range(17):  # 17 * 4K > 64K batch
        sealed = log_write(bs, i * 4096, b"s" * 4096)
        if sealed:
            break
    assert len(sealed) == 1  # one class in play -> one object in the group
    assert sealed[0].data_len == 64 * 1024


def test_object_names_encode_order():
    store, bs = make_store()
    fill(bs, n_writes=40)
    names = [n for n in store.list("vol.") if n.split(".")[-1].isdigit()]
    seqs = sorted(int(n.split(".")[-1]) for n in names)
    assert seqs == list(range(1, len(seqs) + 1))


def test_write_beyond_bounds_rejected():
    store, bs = make_store(size=1 * MiB)
    with pytest.raises(ValueError):
        log_write(bs, 1 * MiB - 100, b"x" * 4096)


def test_stats_write_amplification_counts_everything():
    store, bs = make_store()
    fill(bs, n_writes=32, size=4096, stride=4096)
    assert bs.stats.client_bytes == 32 * 4096
    assert bs.stats.data_bytes == 32 * 4096
    assert bs.stats.write_amplification >= 1.0


def test_fetch_with_prefetch_covers_request_and_neighbours():
    store, bs = make_store()
    fill(bs, n_writes=20, size=4096, stride=8192)
    [ext] = bs.lookup(5 * 8192, 4096)
    pieces = bs.fetch_with_prefetch(ext.target, ext.offset, ext.length)
    fetched = {lba for lba, _ in pieces}
    assert 5 * 8192 in fetched
    assert len(pieces) > 1  # prefetched temporally adjacent writes


def test_fetch_with_prefetch_returns_the_requested_range_unchecked():
    """``request_lba`` names the range the caller looked up.  A window that
    is exactly that range returns it unchecked, so a caller must pass a
    piece it just found live.  A wider window returns only live pieces:
    a stale ``request_lba`` does not come back, nor do overwritten
    neighbours."""
    store, bs = make_store()
    fill(bs, n_writes=20, size=4096, stride=8192)
    [ext] = bs.lookup(5 * 8192, 4096)
    [neighbour] = bs.lookup(6 * 8192, 4096)
    assert neighbour.target == ext.target
    for i, lba in enumerate((ext.lba, neighbour.lba)):  # overwritten after the lookup
        log_write(bs, lba, b"\xee" * 4096)
    for sealed in bs.seal_all():
        bs.commit(sealed)
    assert bs.lookup(ext.lba, 4096)[0].target != ext.target
    old = bytes([6]) * 4096
    [(lba, data)] = bs.fetch_with_prefetch(
        ext.target, ext.offset, 4096, request_lba=ext.lba, window=4096
    )
    assert (lba, bytes(data)) == (ext.lba, old)
    pieces = bs.fetch_with_prefetch(
        ext.target, ext.offset, 4096, request_lba=ext.lba, window=64 * 1024
    )
    got = {lba: bytes(data) for lba, data in pieces}
    assert ext.lba not in got and neighbour.lba not in got
    assert got[4 * 8192] == bytes([5]) * 4096  # a live neighbour still comes back


# -- recovery ----------------------------------------------------------------


def test_recover_rebuilds_map_from_headers():
    store, bs = make_store()
    fill(bs, n_writes=40)
    bs2, state = BlockStore.open(store, "vol", small_config())
    assert bs2.omap.entries() == bs.omap.entries()
    assert state.last_record_seq == 40
    assert read_all(bs2, 3 * 8192, 4096) == bytes([4]) * 4096


def test_recover_from_checkpoint_plus_replay():
    store, bs = make_store()
    fill(bs, n_writes=20)
    bs.write_checkpoint()
    fill(bs, n_writes=10, stride=8192)  # overwrites first 10
    bs2, state = BlockStore.open(store, "vol", small_config())
    assert bs2.omap.entries() == bs.omap.entries()


def test_recover_stops_at_hole_and_deletes_stranded():
    """§3.3: objects 99,100,102 -> take 99,100; delete 102."""
    inner = InMemoryObjectStore()
    store = UnsettledObjectStore(inner)
    bs = BlockStore.create(store, "vol", 64 * MiB, small_config())
    store.settle_all()  # creation checkpoint + super land
    handles = {}
    for i in range(48):  # 3 objects of 16 writes each
        sealed = log_write(bs, i * 4096, bytes([i + 1]) * 4096)
        for batch in sealed:
            handles[batch.seq] = bs.commit(batch)
    assert len(handles) == 3
    seqs = sorted(handles)
    store.settle(handles[seqs[0]])  # object A lands
    store.settle(handles[seqs[2]])  # object C lands out of order
    store.crash()  # object B lost
    bs2, state = BlockStore.open(inner, "vol", small_config())
    assert state.last_seq == seqs[0]
    assert object_name("vol", seqs[2]) in state.stranded_deleted
    assert not inner.exists(object_name("vol", seqs[2]))
    # data from object A visible, from B and C gone
    assert read_all(bs2, 0, 4096) == bytes([1]) * 4096
    assert bs2.lookup(20 * 4096, 4096) == []


def test_recover_last_record_seq_tracks_newest_object():
    store, bs = make_store()
    fill(bs, n_writes=33)
    _, state = BlockStore.open(store, "vol", small_config())
    assert state.last_record_seq == 33


def test_recover_with_lost_super_update_finds_newer_checkpoint():
    store, bs = make_store()
    fill(bs, n_writes=20)
    bs.write_checkpoint()
    # simulate losing the superblock update: restore an older super
    meta_new = BlockStore.read_super(store, "vol")
    bs_old = BlockStore(store, "vol", bytes.fromhex(meta_new["uuid"]), 64 * MiB, small_config())
    bs_old.last_ckpt_seq = 1
    bs_old.write_super()
    bs2, _ = BlockStore.open(store, "vol", small_config())
    assert bs2.omap.entries() == bs.omap.entries()


def test_checkpoint_due_counter():
    store, bs = make_store(checkpoint_interval=2)
    assert not bs.checkpoint_due
    fill(bs, n_writes=16, size=4096, stride=4096)  # one object
    assert not bs.checkpoint_due
    fill(bs, n_writes=16, size=4096, stride=4096)
    assert bs.checkpoint_due
    bs.write_checkpoint()
    assert not bs.checkpoint_due


def test_retire_old_checkpoints_keeps_two():
    store, bs = make_store()
    fill(bs)
    c2, _ = bs.write_checkpoint()
    fill(bs)
    c3, _ = bs.write_checkpoint()
    fill(bs)
    c4, _ = bs.write_checkpoint()
    retired = bs.retire_old_checkpoints()
    assert store.exists(object_name("vol", c4))
    assert store.exists(object_name("vol", c3))
    for seq in retired:
        assert not store.exists(object_name("vol", seq))
    assert 1 in retired or c2 in retired


# -- GC ------------------------------------------------------------------


def run_gc(bs, **kw):
    gc = GarbageCollector(bs, bs.config, **kw)
    rounds = 0
    while gc.needs_gc() and rounds < 50:
        plan = gc.plan()
        if plan is None:
            break
        gc.execute(plan)
        bs.write_checkpoint()
        gc.delete_victims(plan.victims)
        bs.retire_old_checkpoints()
        rounds += 1
    return gc


def test_gc_reclaims_overwritten_space():
    store, bs = make_store()
    for round_ in range(4):  # write the same 1 MiB region repeatedly
        for i in range(256):
            sealed = log_write(bs, i * 4096, bytes([round_ + 1]) * 4096)
            for batch in sealed:
                bs.commit(batch)
    for sealed in bs.seal_all():
        bs.commit(sealed)
    live_before, total_before = bs.occupancy()
    assert live_before / total_before < 0.5  # mostly garbage
    gc = run_gc(bs)
    live, total = bs.occupancy()
    assert live / total >= bs.config.gc_low_watermark
    assert gc.stats.victims_cleaned > 0
    assert bs.stats.objects_deleted > 0
    # data still correct after cleaning
    assert read_all(bs, 0, 4096) == bytes([4]) * 4096
    assert read_all(bs, 255 * 4096, 4096) == bytes([4]) * 4096


def test_gc_then_recover_is_consistent():
    store, bs = make_store()
    for round_ in range(3):
        for i in range(64):
            sealed = log_write(bs, i * 4096, bytes([round_ * 64 + i + 1]) * 4096)
            for batch in sealed:
                bs.commit(batch)
    for sealed in bs.seal_all():
        bs.commit(sealed)
    run_gc(bs)
    bs2, _ = BlockStore.open(store, "vol", small_config())
    for i in range(64):
        assert read_all(bs2, i * 4096, 4096) == bytes([2 * 64 + i + 1]) * 4096


def test_gc_cache_reader_short_circuits_backend_reads():
    store, bs = make_store()
    # overwrite only strided quarters so victims keep partial live data
    for round_ in range(3):
        for i in range(64):
            if round_ == 0 or i % 4 == round_ - 1:
                sealed = log_write(bs, i * 4096, bytes([i + 1]) * 4096)
                for batch in sealed:
                    bs.commit(batch)
    for sealed in bs.seal_all():
        bs.commit(sealed)
    served = []

    def cache_reader(lba, length):
        served.append((lba, length))
        return b"\xee" * length  # pretend everything is cached

    gc = GarbageCollector(bs, bs.config, cache_reader=cache_reader)
    assert gc.needs_gc()
    for _ in range(10):
        plan = gc.plan()
        if plan is None:
            break
        gc.execute(plan)
        bs.write_checkpoint()
        gc.delete_victims(plan.victims)
        if plan.pieces:
            assert plan.bytes_read_cache > 0
            assert plan.bytes_read_backend == 0
            break
    assert served


# -- snapshots ----------------------------------------------------------------


def test_snapshot_defers_gc_deletes():
    store, bs = make_store()
    for i in range(32):
        sealed = log_write(bs, i * 4096, b"v1" * 2048)
        for batch in sealed:
            bs.commit(batch)
    snap_seq = bs.create_snapshot("snap1")
    for i in range(32):
        sealed = log_write(bs, i * 4096, b"v2" * 2048)
        for batch in sealed:
            bs.commit(batch)
    for sealed in bs.seal_all():
        bs.commit(sealed)
    gc = run_gc(bs)
    assert gc.stats.deletes_deferred > 0
    assert bs.deferred_deletes
    # the snapshot's objects are still present
    for victim in bs.deferred_deletes:
        assert store.exists(object_name("vol", victim))
    # deleting the snapshot performs the deferred deletes
    deleted = bs.delete_snapshot("snap1")
    assert deleted
    for victim in deleted:
        assert not store.exists(object_name("vol", victim))


def test_snapshot_duplicate_name_rejected():
    store, bs = make_store()
    bs.create_snapshot("s")
    with pytest.raises(VolumeExistsError):
        bs.create_snapshot("s")
    with pytest.raises(VolumeNotFoundError):
        bs.delete_snapshot("zzz")


def test_snapshot_mount_sees_old_data():
    store, bs = make_store()
    fill(bs, n_writes=16, size=4096, stride=4096)
    snap_seq = bs.create_snapshot("before")
    for i in range(16):
        sealed = log_write(bs, i * 4096, b"NEW!" * 1024)
        for batch in sealed:
            bs.commit(batch)
    for sealed in bs.seal_all():
        bs.commit(sealed)
    old, _ = BlockStore.open(store, "vol", small_config(), upto=snap_seq, read_only=True)
    assert read_all(old, 0, 4096) == bytes([1]) * 4096
    current, _ = BlockStore.open(store, "vol", small_config())
    assert read_all(current, 0, 4096) == b"NEW!" * 1024


# -- clones -------------------------------------------------------------------


def test_clone_shares_base_prefix():
    store, bs = make_store()
    fill(bs, n_writes=16, size=4096, stride=4096)
    clone = BlockStore.clone_from(store, "vol", "clone1", small_config())
    # clone reads base data through base object names
    assert read_all(clone, 0, 4096) == bytes([1]) * 4096
    # clone writes go to its own stream
    for i in range(16):
        sealed = log_write(clone, i * 4096, b"CLNE" * 1024)
        for batch in sealed:
            clone.commit(batch)
    for sealed in clone.seal_all():
        clone.commit(sealed)
    assert read_all(clone, 0, 4096) == b"CLNE" * 1024
    # base unchanged
    base2, _ = BlockStore.open(store, "vol", small_config())
    assert read_all(base2, 0, 4096) == bytes([1]) * 4096


def test_two_clones_diverge_independently():
    store, bs = make_store()
    fill(bs, n_writes=16, size=4096, stride=4096)
    c1 = BlockStore.clone_from(store, "vol", "c1", small_config())
    c2 = BlockStore.clone_from(store, "vol", "c2", small_config())
    for clone, tag in ((c1, b"1111"), (c2, b"2222")):
        for batch in log_write(clone, 0, tag * 1024):
            clone.commit(batch)
        for batch in clone.seal_all():
            clone.commit(batch)
    assert read_all(c1, 0, 4096) == b"1111" * 1024
    assert read_all(c2, 0, 4096) == b"2222" * 1024


def test_clone_recovery_roundtrip():
    store, bs = make_store()
    fill(bs, n_writes=16, size=4096, stride=4096)
    clone = BlockStore.clone_from(store, "vol", "c1", small_config())
    for batch in log_write(clone, 4096, b"zzzz" * 1024):
        clone.commit(batch)
    for batch in clone.seal_all():
        clone.commit(batch)
    c2, _ = BlockStore.open(store, "c1", small_config())
    assert read_all(c2, 0, 4096) == bytes([1]) * 4096  # from base
    assert read_all(c2, 4096, 4096) == b"zzzz" * 1024  # own write


def test_clone_gc_never_touches_base_objects():
    store, bs = make_store()
    fill(bs, n_writes=32, size=4096, stride=4096)
    clone = BlockStore.clone_from(store, "vol", "c1", small_config())
    for round_ in range(3):
        for i in range(32):
            sealed = log_write(clone, i * 4096, bytes([round_ + 10]) * 4096)
            for batch in sealed:
                clone.commit(batch)
    for sealed in clone.seal_all():
        clone.commit(sealed)
    base_objects_before = set(store.list("vol."))
    run_gc(clone)
    assert set(store.list("vol.")) == base_objects_before
    with pytest.raises(SnapshotInUseError):
        clone.delete_object(1)


def test_clone_from_snapshot():
    store, bs = make_store()
    fill(bs, n_writes=16, size=4096, stride=4096)
    bs.create_snapshot("s1")
    for i in range(16):
        sealed = log_write(bs, i * 4096, b"LATE" * 1024)
        for batch in sealed:
            bs.commit(batch)
    for sealed in bs.seal_all():
        bs.commit(sealed)
    clone = BlockStore.clone_from(store, "vol", "c1", small_config(), at_snapshot="s1")
    assert read_all(clone, 0, 4096) == bytes([1]) * 4096
    with pytest.raises(VolumeNotFoundError):
        BlockStore.clone_from(store, "vol", "c2", small_config(), at_snapshot="nope")
