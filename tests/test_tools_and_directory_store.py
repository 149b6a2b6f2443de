"""Tests for the directory object store and offline fsck."""

import random

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.core.block_store import BlockStore
from repro.core.errors import RecoveryError
from repro.core.log import object_name
from repro.core.naming import parse_object_name
from repro.core.scrub import fsck_volume, inspect_object, inspect_stream
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore, NoSuchKeyError
from repro.objstore.directory import DirectoryObjectStore

MiB = 1 << 20


# -- DirectoryObjectStore ------------------------------------------------------


def test_directory_store_roundtrip(tmp_path):
    s = DirectoryObjectStore(tmp_path / "bucket")
    s.put("vd.00000001", b"payload")
    assert s.get("vd.00000001") == b"payload"
    assert s.get_range("vd.00000001", 3, 2) == b"lo"
    assert s.size("vd.00000001") == 7
    assert s.exists("vd.00000001")


def test_directory_store_missing_raises(tmp_path):
    s = DirectoryObjectStore(tmp_path)
    with pytest.raises(NoSuchKeyError):
        s.get("nope")
    with pytest.raises(NoSuchKeyError):
        s.delete("nope")
    with pytest.raises(NoSuchKeyError):
        s.size("nope")


def test_directory_store_list_prefix_and_delete(tmp_path):
    s = DirectoryObjectStore(tmp_path)
    for name in ("a.1", "a.2", "b.1"):
        s.put(name, b"")
    assert s.list("a.") == ["a.1", "a.2"]
    s.delete("a.1")
    assert s.list("a.") == ["a.2"]


def test_directory_store_weird_names(tmp_path):
    s = DirectoryObjectStore(tmp_path)
    name = "vol/with slash.00000001"
    s.put(name, b"x")
    assert s.list() == [name]
    assert s.get(name) == b"x"


def test_directory_store_persists_across_instances(tmp_path):
    DirectoryObjectStore(tmp_path).put("k", b"v")
    assert DirectoryObjectStore(tmp_path).get("k") == b"v"


def test_volume_on_directory_store(tmp_path):
    """Full LSVD volume lifecycle persisted to real files."""
    store = DirectoryObjectStore(tmp_path / "s3")
    cfg = LSVDConfig(batch_size=64 * 1024, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, DiskImage(2 * MiB), cfg)
    for i in range(64):
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.close()
    # reopen via a brand-new store instance (process restart)
    store2 = DirectoryObjectStore(tmp_path / "s3")
    vol2 = LSVDVolume.open(store2, "vd", DiskImage(2 * MiB), cfg, cache_lost=True)
    for i in range(64):
        assert vol2.read(i * 4096, 4096) == bytes([i + 1]) * 4096


# -- fsck -----------------------------------------------------------------------


def make_volume_with_data(store=None, n_writes=200):
    store = store if store is not None else InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=64 * 1024, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, DiskImage(2 * MiB), cfg)
    rng = random.Random(3)
    for i in range(n_writes):
        vol.write(rng.randrange(0, 1024) * 4096, bytes([i % 255 + 1]) * 4096)
    vol.drain()
    return store, cfg, vol


def test_inspect_stream_healthy_volume():
    store, _cfg, vol = make_volume_with_data()
    report = inspect_stream(store, "vd")
    assert report.healthy
    assert report.checkpoints
    assert not report.stranded
    assert report.prefix_end >= max(report.checkpoints)
    assert "no errors" in report.summary()


def test_inspect_object_detects_corruption():
    store, _cfg, vol = make_volume_with_data()
    names = [n for n in store.list("vd.") if n.rsplit(".", 1)[1].isdigit()]
    victim = names[len(names) // 2]
    blob = bytearray(store.get(victim))
    blob[-1] ^= 0xFF
    store.put(victim, bytes(blob))
    obj = inspect_object(store, victim)
    assert not obj.crc_ok
    report = inspect_stream(store, "vd")
    assert not report.healthy
    assert any("CRC" in e or "mismatch" in e for e in report.errors)


def test_inspect_stream_detects_stranded_objects():
    store, _cfg, vol = make_volume_with_data()
    newest_ckpt = max(inspect_stream(store, "vd").checkpoints)
    store.delete(object_name("vd", newest_ckpt + 1))  # a hole after the checkpoint
    damaged = inspect_stream(store, "vd")
    assert damaged.prefix_end == newest_ckpt
    assert damaged.stranded


def hole_before_newest_checkpoint(hint_newest):
    """Delete the object after the older of the two checkpoints, and point
    the superblock hint at the newest checkpoint or at the older one."""
    store, _cfg, vol = make_volume_with_data(n_writes=600)
    older, newer = inspect_stream(store, "vd").checkpoints
    assert (older, newer) == (41, 65)
    store.delete(object_name("vd", older + 1))
    vol.bs.last_ckpt_seq = newer if hint_newest else older
    vol.bs.write_super()
    return store, older, newer


def test_fsck_prefix_is_what_a_stale_hint_mount_recovers():
    """The hint names the older checkpoint: the mount stops at the hole and
    deletes everything past it, the newer checkpoint included."""
    store, older, newer = hole_before_newest_checkpoint(hint_newest=False)
    report = fsck_volume(store, "vd")
    _bs, state = BlockStore.open(store, "vd")
    deleted = [parse_object_name(name)[1] for name in state.stranded_deleted]
    assert report.prefix_end == state.last_seq == older
    assert report.stranded == deleted and newer in deleted


def test_fsck_reports_a_hole_before_the_newest_checkpoint_unmountable():
    store, older, _newer = hole_before_newest_checkpoint(hint_newest=True)
    report = fsck_volume(store, "vd")
    assert not report.healthy and report.prefix_end is None
    assert any(e.startswith("unmountable:") and f"object {older + 1}" in e
               for e in report.errors)
    with pytest.raises(RecoveryError):
        BlockStore.open(store, "vd")


def test_fsck_checks_checkpoint_payloads():
    store, _cfg, vol = make_volume_with_data()
    report = fsck_volume(store, "vd")
    assert report.healthy
