"""Tests for TRIM/discard and vectored writes."""

import pytest

from repro.core import LSVDConfig, LSVDVolume
from repro.core.errors import LSVDError
from repro.devices.image import DiskImage
from repro.objstore import InMemoryObjectStore

MiB = 1 << 20


def make_volume():
    store = InMemoryObjectStore()
    cfg = LSVDConfig(batch_size=64 * 1024, checkpoint_interval=8)
    vol = LSVDVolume.create(store, "vd", 16 * MiB, DiskImage(2 * MiB), cfg)
    return store, vol


def test_trim_reads_back_zero():
    _store, vol = make_volume()
    vol.write(0, b"x" * 8192)
    vol.trim(0, 4096)
    assert vol.read(0, 4096) == b"\x00" * 4096
    assert vol.read(4096, 4096) == b"x" * 4096


def test_trim_after_destage_reads_zero():
    _store, vol = make_volume()
    vol.write(0, b"y" * 8192)
    vol.drain()
    vol.trim(4096, 4096)
    assert vol.read(0, 4096) == b"y" * 4096
    assert vol.read(4096, 4096) == b"\x00" * 4096


def test_trim_of_a_buffered_range_is_not_destaged():
    """A trimmed range still in an open batch is not destaged: the seal
    keeps only what the write cache still maps."""
    _store, vol = make_volume()
    vol.write(0, b"A" * 8192)
    vol.trim(0, 4096)
    vol.drain()
    assert vol.read(0, 4096) == b"\x00" * 4096
    assert vol.read(4096, 4096) == b"A" * 4096


def test_trim_creates_garbage_for_gc():
    _store, vol = make_volume()
    for i in range(64):
        vol.write(i * 4096, bytes([i + 1]) * 4096)
    vol.drain()
    live_before, total = vol.occupancy()
    vol.trim(0, 32 * 4096)
    live_after, _total = vol.occupancy()
    assert live_after == live_before - 32 * 4096


def test_trim_alignment_and_bounds():
    _store, vol = make_volume()
    with pytest.raises(ValueError):
        vol.trim(100, 512)
    with pytest.raises(ValueError):
        vol.trim(vol.size - 512, 1024)


def test_trim_on_read_only_volume_rejected():
    store, vol = make_volume()
    vol.write(0, b"s" * 4096)
    vol.snapshot("s")
    snap = LSVDVolume.open_snapshot(
        store, "vd", "s", DiskImage(2 * MiB), vol.config
    )
    with pytest.raises(LSVDError):
        snap.trim(0, 4096)


def test_writev_single_record_multiple_extents():
    _store, vol = make_volume()
    records_before = vol.wc.next_seq
    vol.writev([(0, b"a" * 4096), (1 * MiB, b"b" * 4096), (2 * MiB, b"c" * 512)])
    assert vol.wc.next_seq == records_before + 1  # one record for all three
    assert vol.read(0, 4096) == b"a" * 4096
    assert vol.read(1 * MiB, 4096) == b"b" * 4096
    assert vol.read(2 * MiB, 512) == b"c" * 512


def test_writev_survives_crash_recovery():
    import random

    store, vol = make_volume()
    image = vol.wc.image
    vol.writev([(0, b"1" * 4096), (8192, b"2" * 4096)])
    vol.flush()
    image.crash(rng=random.Random(1), survive_probability=1.0, allow_torn=False)
    vol2 = LSVDVolume.open(store, "vd", image, vol.config)
    assert vol2.read(0, 4096) == b"1" * 4096
    assert vol2.read(8192, 4096) == b"2" * 4096


def test_writev_empty_and_skip_empty_extents():
    _store, vol = make_volume()
    vol.writev([])
    vol.writev([(0, b""), (4096, b"z" * 512)])
    assert vol.read(4096, 512) == b"z" * 512


def test_writev_validates_every_extent():
    _store, vol = make_volume()
    with pytest.raises(ValueError):
        vol.writev([(0, b"ok" * 256), (100, b"bad" * 256)])


@pytest.mark.parametrize("cache_lost", [False, True])
@pytest.mark.parametrize("placement", ["legacy", "sepbit"])
def test_writev_straddling_a_seal_survives_a_crash(placement, cache_lost):
    """A seal cuts only between records.  A batch that fills halfway
    through a writev's extents seals after the whole record, so the
    object's record mark never claims an extent left in the open batch
    (once that object settled, the record was released and the extent
    lost, with the cache kept or not)."""
    store, image = InMemoryObjectStore(), DiskImage(4 * MiB)
    cfg = LSVDConfig(batch_size=8192, placement=placement)
    vol = LSVDVolume.create(store, "vd", 1 * MiB, image, cfg)
    extents = [(0, b"A" * 4096), (64 * 1024, b"B" * 4096), (128 * 1024, b"C" * 4096)]
    vol.writev(extents)
    vol.flush()
    image.crash()
    vol = LSVDVolume.open(store, "vd", image, cfg, cache_lost=cache_lost)
    for offset, data in extents:
        assert vol.read(offset, 4096) == data
