"""Edge cases for snapshots and clones (§3.6)."""

import random

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.core.errors import LSVDError, VolumeExistsError
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


def small_config(**kw):
    defaults = dict(batch_size=64 * 1024, checkpoint_interval=8)
    defaults.update(kw)
    return LSVDConfig(**defaults)


def make_volume(name="vd"):
    store = InMemoryObjectStore()
    image = DiskImage(2 * MiB)
    cfg = small_config()
    vol = LSVDVolume.create(store, name, 16 * MiB, image, cfg)
    return store, image, cfg, vol


def test_snapshot_of_empty_volume_mounts():
    store, _image, cfg, vol = make_volume()
    vol.snapshot("empty")
    snap = LSVDVolume.open_snapshot(store, "vd", "empty", DiskImage(2 * MiB), cfg)
    assert snap.read(0, 4096) == b"\x00" * 4096


def test_two_snapshots_independent():
    store, _image, cfg, vol = make_volume()
    vol.write(0, b"1" * 4096)
    vol.snapshot("s1")
    vol.write(0, b"2" * 4096)
    vol.snapshot("s2")
    vol.write(0, b"3" * 4096)
    vol.drain()
    s1 = LSVDVolume.open_snapshot(store, "vd", "s1", DiskImage(2 * MiB), cfg)
    s2 = LSVDVolume.open_snapshot(store, "vd", "s2", DiskImage(2 * MiB), cfg)
    assert s1.read(0, 4096) == b"1" * 4096
    assert s2.read(0, 4096) == b"2" * 4096
    assert vol.read(0, 4096) == b"3" * 4096


def test_missing_snapshot_raises():
    store, _image, cfg, vol = make_volume()
    with pytest.raises(LSVDError):
        LSVDVolume.open_snapshot(store, "vd", "nope", DiskImage(2 * MiB), cfg)


def test_snapshot_survives_volume_remount():
    store, image, cfg, vol = make_volume()
    vol.write(0, b"S" * 4096)
    vol.snapshot("pin")
    vol.close()
    vol2 = LSVDVolume.open(store, "vd", image, cfg)
    assert "pin" in vol2.bs.snapshots
    vol2.write(0, b"T" * 4096)
    vol2.drain()
    snap = LSVDVolume.open_snapshot(store, "vd", "pin", DiskImage(2 * MiB), cfg)
    assert snap.read(0, 4096) == b"S" * 4096


def test_deferred_deletes_persist_across_remount():
    store, image, cfg, vol = make_volume()
    rng = random.Random(4)
    for i in range(300):
        vol.write(rng.randrange(0, 256) * 4096, bytes([i % 255 + 1]) * 4096)
    vol.snapshot("pin")
    for i in range(900):
        vol.write(rng.randrange(0, 256) * 4096, bytes([(i * 3) % 255 + 1]) * 4096)
    vol.drain()
    assert vol.bs.deferred_deletes  # GC deferred some deletes
    vol.close()
    vol2 = LSVDVolume.open(store, "vd", image, cfg)
    assert vol2.bs.deferred_deletes == vol.bs.deferred_deletes
    # deleting the snapshot after remount releases the space
    before = store.total_bytes("vd.")
    vol2.delete_snapshot("pin")
    assert store.total_bytes("vd.") < before


def test_clone_name_collision_rejected():
    store, _image, cfg, vol = make_volume()
    vol.close()
    LSVDVolume.clone(store, "vd", "c", DiskImage(2 * MiB), cfg)
    with pytest.raises(VolumeExistsError):
        LSVDVolume.clone(store, "vd", "c", DiskImage(2 * MiB), cfg)


def test_chained_clones():
    """Clone of a clone: the base chain resolves through two ancestors."""
    store, _image, cfg, vol = make_volume()
    vol.write(0, b"base" * 1024)
    vol.close()
    c1 = LSVDVolume.clone(store, "vd", "c1", DiskImage(2 * MiB), cfg)
    c1.write(4096, b"one!" * 1024)
    c1.close()
    c2 = LSVDVolume.clone(store, "c1", "c2", DiskImage(2 * MiB), cfg)
    c2.write(8192, b"two!" * 1024)
    c2.drain()
    assert c2.read(0, 4096) == b"base" * 1024  # from the root base
    assert c2.read(4096, 4096) == b"one!" * 1024  # from c1
    assert c2.read(8192, 4096) == b"two!" * 1024  # own write
    # grandparent untouched
    base = LSVDVolume.open(store, "vd", DiskImage(2 * MiB), cfg, cache_lost=True)
    assert base.read(4096, 4096) == b"\x00" * 4096


def test_clone_snapshot_combination():
    """Snapshot a clone, mount it, delete it."""
    store, _image, cfg, vol = make_volume()
    vol.write(0, b"root" * 1024)
    vol.close()
    clone = LSVDVolume.clone(store, "vd", "c", DiskImage(2 * MiB), cfg)
    clone.write(0, b"div1" * 1024)
    clone.snapshot("cs")
    clone.write(0, b"div2" * 1024)
    clone.drain()
    snap = LSVDVolume.open_snapshot(store, "c", "cs", DiskImage(2 * MiB), cfg)
    assert snap.read(0, 4096) == b"div1" * 1024
    clone.delete_snapshot("cs")
    assert clone.read(0, 4096) == b"div2" * 1024


def test_base_deletion_safety_is_by_convention():
    """§3.6: the clone base is never modified; deleting all clones leaves
    it intact with no reference counting."""
    store, _image, cfg, vol = make_volume()
    vol.write(0, b"keep" * 1024)
    vol.close()
    base_objects = set(store.list("vd."))
    clone = LSVDVolume.clone(store, "vd", "c", DiskImage(2 * MiB), cfg)
    clone.write(0, b"temp" * 1024)
    clone.drain()
    # "delete" the clone: remove its own objects only
    for name in store.list("c."):
        store.delete(name)
    assert set(store.list("vd.")) == base_objects
    base = LSVDVolume.open(store, "vd", DiskImage(2 * MiB), cfg, cache_lost=True)
    assert base.read(0, 4096) == b"keep" * 1024


def make_base_and_clones(n_clones):
    store, _image, cfg, base = make_volume("base")
    for i in range(512):
        base.write(i * 4096, bytes([i % 251 + 1]) * 4096)
    base.close()
    clones = [
        LSVDVolume.clone(store, "base", f"vm{i}", DiskImage(2 * MiB), cfg)
        for i in range(n_clones)
    ]
    return clones


def test_sibling_clone_writes_stay_private():
    clones = make_base_and_clones(3)
    clones[0].write(0, b"A" * 4096)
    clones[1].write(0, b"B" * 4096)
    for clone in clones:
        clone.drain()
    assert clones[0].read(0, 4096) == b"A" * 4096
    assert clones[1].read(0, 4096) == b"B" * 4096
    assert clones[2].read(0, 4096) == bytes([1]) * 4096
    # un-diverged base blocks agree everywhere
    for clone in clones:
        assert clone.read(200 * 4096, 4096) == bytes([201]) * 4096


def test_clone_churn_and_gc_leave_sibling_base_reads_intact():
    clones = make_base_and_clones(2)
    rng = random.Random(1)
    for i in range(2000):
        clones[0].write(rng.randrange(0, 512) * 4096, bytes([i % 250 + 1]) * 4096)
    clones[0].drain()
    assert clones[0].gc.stats.rounds > 0
    for lba in range(0, 512 * 4096, 64 * 4096):
        assert clones[1].read(lba, 4096) == bytes([(lba // 4096) % 251 + 1]) * 4096
