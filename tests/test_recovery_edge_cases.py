"""Recovery edge cases: stranded objects, checkpoint loss, torn logs."""

import random

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.core.block_store import BlockStore
from repro.core.errors import VolumeNotFoundError
from repro.core.log import object_name
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore, UnsettledObjectStore

MiB = 1 << 20


def small_config(**kw):
    defaults = dict(batch_size=64 * 1024, checkpoint_interval=8)
    defaults.update(kw)
    return LSVDConfig(**defaults)


def make_volume(store=None):
    store = store if store is not None else InMemoryObjectStore()
    image = DiskImage(2 * MiB)
    cfg = small_config()
    vol = LSVDVolume.create(store, "vd", 16 * MiB, image, cfg)
    return store, image, cfg, vol


def test_open_nonexistent_volume_raises():
    with pytest.raises(VolumeNotFoundError):
        LSVDVolume.open(
            InMemoryObjectStore(), "ghost", DiskImage(2 * MiB), small_config()
        )


def test_recovery_after_every_object_count():
    """Recover at many points during a long write history; every mount
    must see exactly the writes it should."""
    store, image, cfg, vol = make_volume()
    rng = random.Random(1)
    model = {}
    for i in range(200):
        lba = rng.randrange(0, 1024) * 4096
        data = bytes([i % 255 + 1]) * 4096
        vol.write(lba, data)
        model[lba] = data
        if i % 50 == 49:
            vol.flush()
            image.crash(rng=rng, survive_probability=1.0, allow_torn=False)
            vol = LSVDVolume.open(store, "vd", image, cfg)
            for check_lba, expected in list(model.items())[-20:]:
                assert vol.read(check_lba, 4096) == expected


def test_checkpoint_interval_bounds_replay():
    """More frequent checkpoints mean fewer objects replayed at mount."""
    store = InMemoryObjectStore()
    cfg = small_config(checkpoint_interval=2)
    image = DiskImage(2 * MiB)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, image, cfg)
    for i in range(64):
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.drain()
    bs, state = BlockStore.open(store, "vd", cfg)
    # the consecutive replay window after the newest checkpoint is short
    assert state.last_seq - bs.last_ckpt_seq <= 4


def test_stranded_checkpoint_falls_back_to_older_one():
    """If the newest checkpoint PUT was lost with a hole before it,
    recovery must use the previous checkpoint."""
    store, image, cfg, vol = make_volume()
    for i in range(64):
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.drain()
    # force a checkpoint so at least two exist
    vol.bs.write_checkpoint()
    seqs = sorted(
        int(n.rsplit(".", 1)[1])
        for n in store.list("vd.")
        if n.rsplit(".", 1)[1].isdigit()
    )
    # delete the newest data/checkpoint object to simulate a lost PUT,
    # leaving the superblock pointing at a missing checkpoint
    last = seqs[-1]
    store.delete(object_name("vd", last))
    fresh = DiskImage(2 * MiB)
    vol2 = LSVDVolume.open(store, "vd", fresh, cfg, cache_lost=True)
    for i in range(64):
        assert vol2.read(i * 4096, 4096) == bytes([i + 1]) * 4096


def test_recovery_deletes_only_past_the_hole():
    inner = InMemoryObjectStore()
    store = UnsettledObjectStore(inner)
    cfg = small_config(checkpoint_interval=1000)
    # the cache log must hold all 80 writes while the PUTs stay unsettled
    image = DiskImage(8 * MiB)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, image, cfg)
    store.settle_all()
    for i in range(80):  # five 64K batches
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.flush()
    handles = sorted(store._pending)
    assert len(handles) == 5
    # settle 1,2 and 4,5 - object 3 is lost
    for idx in (0, 1, 3, 4):
        store.settle(handles[idx])
        vol.settle_put(handles[idx])
    store.crash()
    image.lose()
    fresh = DiskImage(2 * MiB)
    vol2 = LSVDVolume.open(inner, "vd", fresh, cfg, cache_lost=True)
    # the prefix covers batches 1-2 (32 writes); stranded 4-5 deleted
    for i in range(32):
        assert vol2.read(i * 4096, 4096) == bytes([i + 1]) * 4096
    for i in range(48, 80):
        assert vol2.read(i * 4096, 4096) == b"\x00" * 4096


def test_corrupt_cache_checkpoints_still_mounts_backend():
    """Total cache corruption degrades to the backend prefix."""
    store, image, cfg, vol = make_volume()
    for i in range(64):
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.drain()
    # scribble over the whole cache region
    image.write(0, b"\xde\xad" * (256 * 1024))
    image.flush()
    vol2 = LSVDVolume.open(store, "vd", image, cfg, cache_lost=True)
    for i in range(64):
        assert vol2.read(i * 4096, 4096) == bytes([i + 1]) * 4096


def test_clone_of_recovered_volume():
    store, image, cfg, vol = make_volume()
    for i in range(32):
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.flush()
    image.crash(rng=random.Random(9), survive_probability=1.0, allow_torn=False)
    vol2 = LSVDVolume.open(store, "vd", image, cfg)
    vol2.drain()
    clone = LSVDVolume.clone(store, "vd", "c", DiskImage(2 * MiB), cfg)
    for i in range(32):
        assert clone.read(i * 4096, 4096) == bytes([i + 1]) * 4096


# ---------------------------------------------------------------------------
# the lazily persisted read-cache map (§3.1): warm only after a clean close
# ---------------------------------------------------------------------------
def gets(store):
    return store.stats.gets + store.stats.range_gets


def cached_volume():
    """A closed volume whose read cache holds block 0 (and neighbours)."""
    store, image, cfg, vol = make_volume()
    for i in range(64):
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.drain()
    vol.wc.release_through(vol.wc.next_seq)
    assert vol.read(0, 4096) == b"\x01" * 4096 and len(vol.rc.map) > 0
    return store, image, cfg, vol


def recovery_event(vol):
    [event] = vol.obs.trace.events("recovery_complete")
    return dict(event.fields)


def test_clean_close_then_open_serves_cached_blocks_without_the_backend():
    store, image, cfg, vol = cached_volume()
    vol.close()
    warm = LSVDVolume.open(store, "vd", image, cfg)
    assert recovery_event(warm)["read_cache_warm"] is True
    before = gets(store)
    assert warm.read(0, 4096) == b"\x01" * 4096
    assert gets(store) == before and warm.rc.hits == 1
    assert not any(warm.rc._prefetched)  # loaded blocks carry no verdict debt


def test_crash_then_open_starts_the_read_cache_cold():
    store, image, cfg, vol = cached_volume()
    vol.close()
    again = LSVDVolume.open(store, "vd", image, cfg)  # warm, then crashes
    again.write(0, b"n" * 4096)
    again.flush()
    image.crash(rng=random.Random(5))
    cold = LSVDVolume.open(store, "vd", image, cfg)
    assert recovery_event(cold)["read_cache_warm"] is False
    assert len(cold.rc.map) == 0
    assert cold.read(0, 4096) == b"n" * 4096


def test_declined_save_does_not_resurrect_the_previous_shutdowns_map():
    store, image, cfg, vol = cached_volume()
    vol.close()  # shutdown 1 saves a map holding block 0
    again = LSVDVolume.open(store, "vd", image, cfg)
    again.write(0, b"n" * 4096)  # block 0 leaves the read cache
    again.drain()
    again.rc.slot_size = 4096  # shutdown 2's map will not fit its slot
    for i in range(0, 1024, 2):
        again.rc.insert([(8 * MiB + i * 4096, b"f" * 4096)])
    again.close()
    cold = LSVDVolume.open(store, "vd", image, cfg)
    assert recovery_event(cold)["read_cache_warm"] is False
    assert len(cold.rc.map) == 0
    assert cold.read(0, 4096) == b"n" * 4096


def test_map_saved_under_an_older_clean_shutdown_is_not_loaded():
    """The stamp alone rejects a stale slot, erased or not."""
    store, image, cfg, vol = cached_volume()
    vol.close()
    again = LSVDVolume.open(store, "vd", image, cfg)
    again.write(0, b"n" * 4096)
    again.drain()
    again.rc.save_map = lambda stamp: None  # shutdown 2 saves nothing at all
    again.close()
    cold = LSVDVolume.open(store, "vd", image, cfg)
    assert recovery_event(cold)["read_cache_warm"] is False
    assert cold.read(0, 4096) == b"n" * 4096


def test_read_cache_stays_cold_when_the_backend_moved_on_through_another_cache():
    store, image, cfg, vol = cached_volume()
    vol.close()
    elsewhere = LSVDVolume.open(store, "vd", DiskImage(2 * MiB), cfg, cache_lost=True)
    elsewhere.write(0, b"e" * 4096)
    elsewhere.close()
    back = LSVDVolume.open(store, "vd", image, cfg)  # the first cache again
    assert recovery_event(back)["read_cache_warm"] is False
    assert back.read(0, 4096) == b"e" * 4096
